"""Amalgamated free products K1 *_I K2 of finite groups via normal forms.

Every element has a unique reduced expression t_1 t_2 ... t_n * i where the
t_j are nontrivial transversal representatives alternating between the two
factors and i lies in the shared subgroup.  Words carry the I-part on the
right, so right cosets K\\g canonicalize by stripping from the left.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from amalgext.groups import FiniteGroup, SubgroupEmbedding


TAG_K1 = "K1"
TAG_K2 = "K2"
TAG_I = "I"
_SIDES = {TAG_K1: 1, TAG_K2: 2, TAG_I: None}
_BOTH_SIDES = np.array([[1], [2]])  # a column of sides, against which EdgeTree.lead broadcasts


class LetterOutOfGroup(ValueError):
    pass


class DatumMismatch(ValueError):
    pass


class GWord:
    """Normal form of an element of the amalgam.

    letters: tuple of (side, element_index) with side in {1, 2}, each element
    a nontrivial transversal representative, sides strictly alternating.
    tail: element index in I.
    """

    __slots__ = ("datum", "letters", "tail")

    def __init__(self, datum, letters, tail):
        self.datum = datum
        self.letters = tuple(letters)
        self.tail = int(tail)

    def __eq__(self, other):
        return (
            isinstance(other, GWord)
            and self.datum is other.datum
            and self.letters == other.letters
            and self.tail == other.tail
        )

    def __hash__(self):
        return hash((self.letters, self.tail))

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        return self.datum.multiply(self, other)

    def __invert__(self):
        return self.datum.inverse(self)

    def sort_key(self):
        return (len(self.letters), self.letters, self.tail)

    def is_identity(self) -> bool:
        return not self.letters and self.tail == self.datum.I.identity

    def __repr__(self):
        d = self.datum
        parts = [
            (d.K1 if s == 1 else d.K2).label(t) + (":1" if s == 1 else ":2")
            for s, t in self.letters
        ]
        if self.tail != d.I.identity or not parts:
            parts.append("[" + d.I.label(self.tail) + "]")
        return ".".join(parts)


class CosetRep(NamedTuple):
    """Canonical representative of a right coset of K1, K2 or I."""

    tag: str
    word: GWord


class EdgeTree:
    """The edge ball of one radius as a tree of index arrays (AmalgamDatum._edge_ball).

    Entry i is the i-th representative in sort order: reps[i] is its (letters,
    tail), depth[i] its word length and lead[i] the side of its first letter (0
    for the root ((), 0)).  Where it leads on side s, its K_s end is the
    representative parent[i], one letter shorter, and witness[i] * w_i =
    w_parent[i] with witness[i] in K_s.  It holds no word and no datum.
    """

    __slots__ = ("radius", "reps", "lead", "parent", "witness", "depth")

    def __init__(self, radius, reps, lead, parent, witness, depth):
        self.radius, self.reps = radius, reps
        self.lead, self.parent, self.witness, self.depth = (
            np.array(x, dtype=np.intp) for x in (lead, parent, witness, depth))

    def ends(self, identities) -> tuple[np.ndarray, np.ndarray]:
        """Each edge's two vertex ends, as two (2, edges) arrays: row s - 1 holds its
        K_s end's index in the vertex list, the K1 ball and then the K2 ball, and
        the k in K_s with k * w = that vertex's representative (identities: K1's
        and K2's).  The K_s ball is the edges that do not lead on side s, in
        order (see AmalgamDatum.ball), so one count over both rows gives the
        indices."""
        leads = self.lead == _BOTH_SIDES
        index = np.cumsum(~leads).reshape(leads.shape) - 1
        return (np.where(leads, index[:, self.parent], index),
                np.where(leads, self.witness, np.array(identities)[:, None]))


class CosetBall:
    """The canonical coset representatives of AmalgamDatum.ball, in sort order.

    They are held as (letters, tail) tuples, and each item read is made a GWord
    then.  For tag I, tree is the ball's EdgeTree, else None.
    """

    def __init__(self, datum, reps, tree=None):
        self.datum, self.reps, self.tree = datum, reps, tree

    def __len__(self):
        return len(self.reps)

    def __getitem__(self, i):
        return GWord(self.datum, *self.reps[i])

    def __iter__(self):
        datum = self.datum
        return (GWord(datum, letters, tail) for letters, tail in self.reps)

    def __eq__(self, other):
        if isinstance(other, (list, CosetBall)):
            return list(self) == list(other)
        return NotImplemented


def _sort_key(rep):
    """GWord.sort_key of a (letters, tail) tuple."""
    return len(rep[0]), rep[0], rep[1]


class AmalgamDatum:
    """The construction data of G = K1 *_I K2 plus derived normal-form tables.

    ends lists the edge's two ends, (TAG_K1, emb1) and (TAG_K2, emb2): each is a
    vertex tag and the embedding of I into that vertex's group (emb.target).  The
    mapping cone and the oracles beside it read the vertices from this list only.
    """

    def __init__(self, K1: FiniteGroup, K2: FiniteGroup, I: FiniteGroup,
                 emb1: SubgroupEmbedding, emb2: SubgroupEmbedding, name: str = ""):
        if emb1.source is not I or emb2.source is not I:
            raise DatumMismatch("both embeddings must share the common subgroup as source")
        if emb1.target is not K1 or emb2.target is not K2:
            raise DatumMismatch("embedding targets must be the two factors")
        emb1.validate()
        emb2.validate()
        self.K1, self.K2, self.I = K1, K2, I
        self.emb1, self.emb2 = emb1, emb2
        self.ends = ((TAG_K1, emb1), (TAG_K2, emb2))
        self.name = name

        # Transversals: K = union of t * image(I); minimal element index per
        # coset, except the coset of the image itself which is represented by
        # the identity.  decomp maps k to its unique (t, i) with k = t*emb(i).
        self.transversal = {}
        self.decomp = {}
        for side, K, emb in ((1, K1, emb1), (2, K2, emb2)):
            image = emb.image()
            reps = []
            decomp = [None] * K.order
            seen = set()
            for k in range(K.order):
                if k in seen:
                    continue
                coset = [K.mul(k, im) for im in image]
                t = K.identity if K.identity in coset else min(coset)
                reps.append(t)
                for i in range(I.order):
                    elem = K.mul(t, emb(i))
                    decomp[elem] = (t, i)
                    seen.add(elem)
            if None in decomp:
                raise DatumMismatch("image cosets do not cover the factor group")
            reps.sort()
            self.transversal[side] = reps
            self.decomp[side] = decomp

        self.nontrivial_transversal = {
            side: [t for t in reps if t != self._factor(side).identity]
            for side, reps in self.transversal.items()
        }
        # push[side][t][i] = decomp[side][emb(i) * t]: one step of _push_tail
        self._push = {
            side: [[self.decomp[side][k] for k in row]
                   for row in K.table[emb.mapping].T.tolist()]
            for side, K, emb in ((1, K1, emb1), (2, K2, emb2))
        }
        self._I_table = I.table.tolist()
        self._ball_cache = {}  # (tag, r) -> the ball's (letters, tail) tuples and, for I, its EdgeTree
        # the edge tree of the largest radius built, which canon_from_edge reads
        self._deepest = EdgeTree(-1, [], [], [], [], [])

    def __repr__(self):
        return f"AmalgamDatum({self.name or 'unnamed'})"

    def _factor(self, side: int) -> FiniteGroup:
        return self.K1 if side == 1 else self.K2

    def _emb(self, side: int) -> SubgroupEmbedding:
        return self.emb1 if side == 1 else self.emb2

    # -- normal forms --------------------------------------------------

    @property
    def identity_word(self) -> GWord:
        return GWord(self, (), self.I.identity)

    def word_from_factor(self, tag: str, k: int) -> GWord:
        """The normal form of a single factor element (tag K1, K2 or I)."""
        if tag == TAG_I:
            return GWord(self, (), k)
        return self._absorb(_SIDES[tag], k, self.identity_word)

    def _push_tail(self, i: int, letters, tail: int):
        """Move an I-element through a normal word from the left.

        Rewrites i * t_1 ... t_n * tail in normal form; each step swaps
        emb(i) * t into t' * emb(i') via the transversal decomposition.
        The new first letters stay nontrivial because t was not in the
        image coset.
        """
        push = self._push
        out = []
        for side, t in letters:
            t2, i = push[side][t][i]
            out.append((side, t2))
        return tuple(out), self._I_table[i][tail]

    def _absorb(self, side: int, k: int, w: GWord) -> GWord:
        """Normal form of k * w for k in the side factor."""
        K = self._factor(side)
        if k == K.identity:
            return w
        letters = w.letters
        if letters and letters[0][0] == side:
            k, letters = K.mul(k, letters[0][1]), letters[1:]
        t, i = self.decomp[side][k]
        rest, tail = self._push_tail(i, letters, w.tail)
        if t == K.identity:
            return GWord(self, rest, tail)
        return GWord(self, ((side, t),) + rest, tail)

    def reduce(self, letters) -> GWord:
        """Fold a sequence of tagged factor elements into its normal form.

        letters: iterable of (tag, element_index); processed right to left,
        maintaining a normalized suffix.
        """
        w = self.identity_word
        for tag, k in reversed(list(letters)):
            if tag == TAG_I:
                side, k = 1, self.emb1(self._check_letter(TAG_I, k))
            else:
                side = 1 if tag == TAG_K1 else 2 if tag == TAG_K2 else None
                if side is None:
                    raise LetterOutOfGroup(f"unknown tag {tag!r}")
                k = self._check_letter(tag, k)
            w = self._absorb(side, k, w)
        return w

    def _check_letter(self, tag: str, k: int) -> int:
        group = {TAG_K1: self.K1, TAG_K2: self.K2, TAG_I: self.I}[tag]
        if not 0 <= k < group.order:
            raise LetterOutOfGroup(f"element {k} out of range for {tag}")
        return int(k)

    def multiply(self, u: GWord, v: GWord) -> GWord:
        if u.datum is not self or v.datum is not self:
            raise DatumMismatch("words belong to different amalgams")
        w = self._absorb(1, self.emb1(u.tail), v)
        for side, t in reversed(u.letters):
            w = self._absorb(side, t, w)
        return w

    def inverse(self, u: GWord) -> GWord:
        if u.datum is not self:
            raise DatumMismatch("word belongs to a different amalgam")
        # (t_1 ... t_n i)^-1 = i^-1 t_n^-1 ... t_1^-1: push i^-1 through the
        # inverted letters, which lie outside the image of I as the t_j do
        inverted = [(side, self._factor(side).inv(t)) for side, t in reversed(u.letters)]
        letters, tail = self._push_tail(self.I.inv(u.tail), inverted, self.I.identity)
        return GWord(self, letters, tail)

    # -- cosets ----------------------------------------------------------

    def canon_with_witness(self, tag: str, g: GWord):
        """Minimal element of the orbit {k * g : k in subgroup} plus the witness k.

        The minimum is over (word length, letters, tail index); it is the
        canonical representative of the right coset (subgroup) * g.

        Write g = t_1 ... t_n * i in normal form.  For the factor on side s,
        if t_1 lies on side s the shortest orbit elements are exactly
        j * (t_2 ... t_n * i) for j in I: k = emb_s(j) * t_1^-1 reaches them
        and every other k leaves a nontrivial first letter.  Otherwise they
        are exactly j * g: every k outside emb_s(I) adds a letter.  For I
        the orbit is {j * g}.  So only |I| candidates of one length are
        compared, and since I acts freely the minimum and its witness are
        unique.
        """
        if g.datum is not self:
            raise DatumMismatch("word belongs to a different amalgam")
        side = _SIDES[tag]
        letters, tail = g.letters, g.tail
        stripped = side is not None and letters and letters[0][0] == side
        if stripped:
            letters = letters[1:]
        (letters, tail), j = min((self._push_tail(j, letters, tail), j)
                                 for j in range(self.I.order))
        if side is None:
            k = j
        else:
            K = self._factor(side)
            k = self._emb(side)(j)
            if stripped:
                k = K.mul(k, K.inv(g.letters[0][1]))
        return CosetRep(tag, GWord(self, letters, tail)), k

    def canon(self, tag: str, g: GWord) -> CosetRep:
        return self.canon_with_witness(tag, g)[0]

    def canon_from_edge(self, tag: str, w: GWord):
        """canon_with_witness(tag, w) for a factor tag and an I-canonical word w.

        The vertex ends of the edge coset I*w.  Unless w starts with a letter
        of the factor's side, the shortest elements of its orbit are the
        j * w for j in I (see canon_with_witness), and w is the least of them,
        so w is its own representative with the identity as witness.  The end
        on the leading side is read from the parent and witness arrays of the
        deepest edge tree built (see _edge_ball), where w is found by bisection
        in sort order, not searched for: w must be a word of ball(TAG_I, r) for
        some r already requested.
        """
        side = _SIDES[tag]
        if not (w.letters and w.letters[0][0] == side):
            return CosetRep(tag, w), self._factor(side).identity
        tree, rep = self._deepest, (w.letters, w.tail)
        i = bisect_left(tree.reps, _sort_key(rep), key=_sort_key)
        if tree.reps[i : i + 1] != [rep]:
            raise KeyError(f"{w!r} is in no edge ball built")
        return CosetRep(tag, GWord(self, *tree.reps[tree.parent[i]])), int(tree.witness[i])

    def reduced_words(self, max_len: int) -> list[GWord]:
        """All normal forms of word length at most max_len, shortest first."""
        layers = [[GWord(self, (), i) for i in range(self.I.order)]]
        for _ in range(max_len):
            nxt = []
            for w in layers[-1]:
                sides = (1, 2) if not w.letters else ((2,) if w.letters[0][0] == 1 else (1,))
                for side in sides:
                    for t in self.nontrivial_transversal[side]:
                        nxt.append(GWord(self, ((side, t),) + w.letters, w.tail))
            layers.append(nxt)
        out = [w for layer in layers for w in layer]
        out.sort(key=GWord.sort_key)
        return out

    def edge_coset_count(self, r: int, cap: int | None = None) -> int:
        """E(r), the number of right cosets of I of word length <= r.

        Each such coset holds exactly one normal form per alternating letter
        sequence of length <= r, with |K1:I| - 1 and |K2:I| - 1 choices per
        letter on either side.  With a cap, counting stops at the first
        radius whose count exceeds it, so the result is then a lower bound.
        """
        a, b = (len(self.nontrivial_transversal[side]) for side in (1, 2))
        total, ends1, ends2 = 1, 1, 1  # sequences of the last length, by first side
        for _ in range(r):
            ends1, ends2 = a * ends2, b * ends1
            if not (ends1 or ends2) or (cap is not None and total > cap):
                break
            total += ends1 + ends2
        return total

    def ball(self, tag: str, r: int) -> CosetBall:
        """Canonical coset representatives of word length <= r, in sort order.

        The edge ball (tag I) is the EdgeTree built by _edge_ball, which also
        records each representative's vertex end on its leading side.
        Canonicalizing never lengthens a word, and by the length argument of
        canon_with_witness canon(K_s, w) = canon(I, strip_s(w)), where strip_s
        removes a leading side-s letter.  As canonicalizing over I keeps the
        side of the first letter, the ball of K_s is the edge ball without the
        representatives that start with a side-s letter, in the same order.
        For those representatives w the witness is the identity of K_s:
        canon_with_witness(K_s, w) is (w, identity), which is what
        canon_from_edge returns without a search.  The cache holds tuples and
        trees; the returned CosetBall makes a GWord per item read.
        """
        if r < 0:
            raise ValueError("radius must be nonnegative")
        key = (tag, r)
        if key not in self._ball_cache:
            side = _SIDES[tag]
            if side is None:
                tree = self._edge_ball(r)
                self._ball_cache[key] = tree.reps, tree
                if r > self._deepest.radius:
                    self._deepest = tree
            else:
                tree = self.ball(TAG_I, r).tree
                self._ball_cache[key] = [rep for rep, lead in zip(tree.reps, tree.lead.tolist())
                                         if lead != side], None
        return CosetBall(self, *self._ball_cache[key])

    def _edge_ball(self, r: int) -> EdgeTree:
        """The minima of the I-orbits of reduced words of length <= r, in sort
        order, built one word length at a time from (letters, tail) tuples.

        A word of length n + 1 is a letter (s, t) followed by a word x of
        length n that does not start on side s, and its sort key compares
        (s, t) before x.  So taking the letters in order, and for each the
        words x in their own order, meets the words of length n + 1 in sort
        order.  Each x is named by its orbit c and the a in I with
        x = a * rep_c, where rep_c is the orbit's minimum.  The orbit of
        w = (s, t) x is then read off the orbit of x: for j in I,

            j * w = (s, t') (i' a) * rep_c,  where (t', i') = push[s][t][j],

        and (i' a) * rep_c is entry i'a of rep_c's orbit table, so no word is
        walked letter by letter.  All of an orbit is marked when its first
        word is met, and the orbit's words are met in sort order, so the first
        one met is its minimum.  The one orbit of length 0 is all of I, and
        its minimum is ((), 0), which is the identity word only when I's
        identity is element 0.

        The vertex end of w on its leading side s is canon_with_witness(K_s,
        w): stripping (s, t) leaves x, whose minimum rep_c is reached by
        a^-1, so it is (rep_c, emb_s(a^-1) t^-1).  The tree records, per
        minimum, its leading side s, its parent rep_c's index, that witness
        and its length.  The orbit tables of one length are dropped once the
        next length is built.
        """
        I = self.I
        n, e = I.order, I.identity
        times = I.table.T.tolist()  # times[a][i] = i * a
        sides = []  # per side: per nontrivial t its letter, pushes and witnesses
        for s in (1, 2):
            K, ts = self._factor(s), self.nontrivial_transversal[s]
            # witnesses[t][a] = emb_s(a^-1) t^-1
            witnesses = K.table[self._emb(s).mapping[I.inverse_table][:, None],
                                K.inverse_table[ts]].T.tolist()
            sides.append((s, {t: (((s, t),), self._push[s][t], w)
                              for t, w in zip(ts, witnesses)}))
        reps, first = [((), 0)], 0  # first: index in reps of the length's first
        lead, parent, ks, depth = [0], [0], [0], [0]  # the EdgeTree's arrays; ks: witnesses
        tails = I.table[:, 0].tolist()  # tails[a] = a * 0
        orbits = [[((), i) for i in tails]]  # orbits[c][a] = a * rep_(first + c)
        # a * rep_(first + c) has id c * n + a; follow[s] lists, in sort order,
        # the ids of the words that may follow a side-s letter
        follow = dict.fromkeys((1, 2), sorted(range(n), key=tails.__getitem__))
        for length in range(1, r + 1):
            new_orbits, starts = [], {}
            for s, steps in sides:
                # marks[t][x]: the id of (s, t) x once its orbit is met
                marks = {t: [None] * (len(orbits) * n) for t in steps}
                out = starts[s] = []
                for t, (_, pushes, witness) in steps.items():
                    moves = [(steps[t2][0], marks[t2], i2) for t2, i2 in pushes]
                    mark = marks[t]
                    for x in follow[s]:
                        hit = mark[x]
                        if hit is None:
                            c, a = divmod(x, n)
                            g, rows, orbit, times_a = len(new_orbits) * n, orbits[c], [], times[a]
                            for j, (letter, mark2, i2) in enumerate(moves):
                                b = times_a[i2]
                                letters, tail = rows[b]
                                orbit.append((letter + letters, tail))
                                mark2[x - a + b] = g + j
                            new_orbits.append(orbit)
                            reps.append(orbit[e])
                            lead.append(s)
                            parent.append(first + c)
                            ks.append(witness[a])
                            depth.append(length)
                            hit = g + e
                        out.append(hit)
            first = len(reps) - len(new_orbits)
            orbits, follow = new_orbits, {1: starts[2], 2: starts[1]}
        return EdgeTree(r, reps, lead, parent, ks, depth)

    def right_transversal_of_I(self, side: int) -> list[int]:
        """Representatives of the right cosets image(I) * k in the side factor."""
        K = self._factor(side)
        return [c[0] for c in K.right_cosets(self._emb(side).image())]
