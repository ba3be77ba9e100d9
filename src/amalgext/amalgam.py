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
        self._identity_word = GWord(self, (), I.identity)
        self._subgroup_words = {
            TAG_K1: [(k, self._embed_word(1, k)) for k in range(K1.order)],
            TAG_K2: [(k, self._embed_word(2, k)) for k in range(K2.order)],
            TAG_I: [(i, GWord(self, (), i)) for i in range(I.order)],
        }
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

    def _embed_word(self, side: int, k: int) -> GWord:
        t, i = self.decomp[side][k]
        if t == self._factor(side).identity:
            return GWord(self, (), i)
        return GWord(self, ((side, t),), i)

    def word_from_factor(self, tag: str, k: int) -> GWord:
        """The normal form of a single factor element (tag K1, K2 or I)."""
        if tag == TAG_I:
            return GWord(self, (), k)
        side = 1 if tag == TAG_K1 else 2
        return self._embed_word(side, k)

    def _push_tail(self, i: int, letters, tail: int):
        """Move an I-element through a normal word from the left.

        Rewrites i * t_1 ... t_n * tail in normal form; each step swaps
        emb(i) * t into t' * emb(i') via the transversal decomposition.
        The new first letters stay nontrivial because t was not in the
        image coset.
        """
        out = []
        for side, t in letters:
            K = self._factor(side)
            k = K.mul(self._emb(side)(i), t)
            t2, i = self.decomp[side][k]
            out.append((side, t2))
        return tuple(out), self.I.mul(i, tail)

    def _absorb(self, side: int, k: int, w: GWord) -> GWord:
        """Normal form of k * w for k in the side factor."""
        K = self._factor(side)
        if k == K.identity:
            return w
        letters, tail = w.letters, w.tail
        if letters and letters[0][0] == side:
            combined = K.mul(k, letters[0][1])
            t, i = self.decomp[side][combined]
            rest, tail = self._push_tail(i, letters[1:], tail)
            if t == K.identity:
                return GWord(self, rest, tail)
            return GWord(self, ((side, t),) + rest, tail)
        t, i = self.decomp[side][k]
        rest, tail = self._push_tail(i, letters, tail)
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
        w = self._embed_word(1, self.emb1(self.I.inv(u.tail)))
        for side, t in reversed(u.letters):
            w = self.multiply(w, self._embed_word(side, self._factor(side).inv(t)))
        return w

    # -- cosets ----------------------------------------------------------

    def canon_with_witness(self, tag: str, g: GWord):
        """Minimal element of the orbit {k * g : k in subgroup} plus the witness k.

        The minimum is over (word length, letters, tail index); it is the
        canonical representative of the right coset (subgroup) * g.
        """
        best = None
        best_k = None
        for k, k_word in self._subgroup_words[tag]:
            cand = self.multiply(k_word, g)
            if best is None or cand.sort_key() < best.sort_key():
                best, best_k = cand, k
        return CosetRep(tag, best), best_k

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

    def ball(self, tag: str, r: int) -> list[GWord]:
        """Canonical coset representatives of word length <= r, in sort order."""
        if r < 0:
            raise ValueError("radius must be nonnegative")
        key = (tag, r)
        if key not in self._ball_cache:
            reps = {}
            for w in self.reduced_words(r):
                rep = self.canon(tag, w).word
                if len(rep.letters) <= r:
                    reps[rep] = True
            out = sorted(reps, key=GWord.sort_key)
            self._ball_cache[key] = out
        return self._ball_cache[key]

    def subgroup_words(self, tag: str):
        return list(self._subgroup_words[tag])

    def right_transversal_of_I(self, side: int) -> list[int]:
        """Representatives of the right cosets image(I) * k in the side factor."""
        K = self._factor(side)
        return [c[0] for c in K.right_cosets(self._emb(side).image())]
