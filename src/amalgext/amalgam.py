"""Amalgamated free products K1 *_I K2 of finite groups via normal forms.

Every element has a unique reduced expression t_1 t_2 ... t_n * i where the
t_j are nontrivial transversal representatives alternating between the two
factors and i lies in the shared subgroup.  Words carry the I-part on the
right, so right cosets K\\g canonicalize by stripping from the left.
"""

from __future__ import annotations

from typing import NamedTuple

from amalgext.groups import FiniteGroup, SubgroupEmbedding


TAG_K1 = "K1"
TAG_K2 = "K2"
TAG_I = "I"
_SIDES = {TAG_K1: 1, TAG_K2: 2, TAG_I: None}


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


class AmalgamDatum:
    """The construction data of G = K1 *_I K2 plus derived normal-form tables."""

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
        # push[side][i][t] = decomp[side][emb(i) * t]: one step of _push_tail
        self._push = {
            side: [[self.decomp[side][k] for k in row]
                   for row in K.table[emb.mapping].tolist()]
            for side, K, emb in ((1, K1, emb1), (2, K2, emb2))
        }
        self._I_table = I.table.tolist()
        self._identity_word = GWord(self, (), I.identity)
        self._ball_cache = {}

    def __repr__(self):
        return f"AmalgamDatum({self.name or 'unnamed'})"

    def _factor(self, side: int) -> FiniteGroup:
        return self.K1 if side == 1 else self.K2

    def _emb(self, side: int) -> SubgroupEmbedding:
        return self.emb1 if side == 1 else self.emb2

    # -- normal forms --------------------------------------------------

    @property
    def identity_word(self) -> GWord:
        return self._identity_word

    def word_from_factor(self, tag: str, k: int) -> GWord:
        """The normal form of a single factor element (tag K1, K2 or I)."""
        if tag == TAG_I:
            return GWord(self, (), k)
        return self._absorb(_SIDES[tag], k, self._identity_word)

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
            t2, i = push[side][i][t]
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
        w = self._identity_word
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

    def ball(self, tag: str, r: int) -> list[GWord]:
        """Canonical coset representatives of word length <= r, in sort order.

        Canonicalizing never lengthens a word, and by the length argument of
        canon_with_witness canon(K_s, w) = canon(I, strip_s(w)), where
        strip_s removes a leading side-s letter.  As canonicalizing over I
        keeps the side of the first letter, the ball of K_s is the edge ball
        (of I) without the representatives that start with a side-s letter,
        in the same order.
        """
        if r < 0:
            raise ValueError("radius must be nonnegative")
        key = (tag, r)
        if key not in self._ball_cache:
            side = _SIDES[tag]
            if side is None:
                self._ball_cache[key] = self._edge_ball(r)
            else:
                self._ball_cache[key] = [w for w in self.ball(TAG_I, r)
                                         if not (w.letters and w.letters[0][0] == side)]
        return self._ball_cache[key]

    def _edge_ball(self, r: int) -> list[GWord]:
        # The orbits of I split the reduced words into groups of one length;
        # the words come in sort order, so the first word met in each orbit
        # is its minimum.
        reps = []
        covered = set()
        for w in self.reduced_words(r):
            if (w.letters, w.tail) not in covered:
                reps.append(w)
                covered.update(self._push_tail(j, w.letters, w.tail)
                               for j in range(self.I.order))
        return reps

    def right_transversal_of_I(self, side: int) -> list[int]:
        """Representatives of the right cosets image(I) * k in the side factor."""
        K = self._factor(side)
        return [c[0] for c in K.right_cosets(self._emb(side).image())]
