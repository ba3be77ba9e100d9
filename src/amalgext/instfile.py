"""Parser for the line-oriented .amg amalgam description format.

A file has sections introduced by bracket headers:

    [instance]            name and default characteristic
    [group K1], [group K2]  permutation generators (perm NAME = images)
                            or an explicit table (table = row / row / ...)
    [subgroup I]            the shared subgroup plus two embedding lists
                            (embed K1 = target indices, one per element)
    [module NAME]           optional: per-generator matrices over one group
    [grep NAME]             optional: paired K1/K2 generator matrices on one
                            space (a representation of the whole amalgam)

Matrix rows are separated by "/"; entries are integers, negatives allowed,
reduced in whatever characteristic the instance is built with.  Diagnostics
carry the 1-based line number of the offending directive.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from amalgext.amalgam import AmalgamDatum, TAG_I, TAG_K1, TAG_K2
from amalgext.groups import FiniteGroup, NotHomomorphism, NotInjective, SubgroupEmbedding
from amalgext.induction import GRep, grep_from_generators, trivial_grep
from amalgext.linalg import Field, is_prime
from amalgext.reps import KModule, module_from_generators


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class _Section:
    header: str
    line: int
    items: list  # (key, value, line)


@dataclass
class BuiltInstance:
    """An instance realized over a concrete field."""

    name: str
    characteristic: int
    datum: AmalgamDatum
    field: Field
    modules: dict
    greps: dict

    def grep(self, name: str, dim: int = 1) -> GRep:
        if name == "triv":
            return trivial_grep(self.datum, self.field, dim)
        if name not in self.greps:
            raise KeyError(f"no representation named {name!r}; file defines {sorted(self.greps)}")
        return self.greps[name]


class InstanceFile:
    """A parsed instance; group data is fixed, matrices rebuild per field."""

    def __init__(self, name, characteristic, datum, module_specs, grep_specs):
        self.name = name
        self.characteristic = characteristic
        self.datum = datum
        self.module_specs = module_specs  # name -> (group_tag, {gen_index: rows}, line)
        self.grep_specs = grep_specs      # name -> ({gen: rows}, {gen: rows}, line)
        self._declared = None  # the BuiltInstance over the declared characteristic, from parsing

    def build(self, characteristic: int | None = None) -> BuiltInstance:
        """The instance over F_p, p the given or the declared characteristic.

        A characteristic that is not a prime the Field accepts raises a plain
        ValueError; a module or grep that is not a representation over F_p
        raises a ValidationError at its line.
        """
        char = self.characteristic if characteristic is None else characteristic
        if char == self.characteristic and self._declared is not None:
            return self._declared
        if char == 0 or not is_prime(char):
            raise ValueError(f"characteristic must be a prime, got {char}")
        fld = Field(char)  # refuses a prime too large for exact arithmetic
        d = self.datum
        groups = {TAG_K1: d.K1, TAG_K2: d.K2, TAG_I: d.I}
        modules = {}
        for name, (tag, gens, line) in self.module_specs.items():
            try:
                modules[name] = module_from_generators(groups[tag], fld,
                                                       {g: fld.array(m) for g, m in gens.items()})
            except ValueError as exc:
                raise ValidationError(line, f"module {name!r}: {exc}") from exc
        greps = {}
        for name, (gens1, gens2, line) in self.grep_specs.items():
            try:
                greps[name] = grep_from_generators(
                    d, fld,
                    {g: fld.array(m) for g, m in gens1.items()},
                    {g: fld.array(m) for g, m in gens2.items()},
                )
            except ValueError as exc:
                raise ValidationError(line, f"grep {name!r}: {exc}") from exc
        return BuiltInstance(self.name, char, d, fld, modules, greps)


def _split_sections(text: str) -> list[_Section]:
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(lineno, "unterminated section header")
            current = _Section(line[1:-1].strip(), lineno, [])
            sections.append(current)
            continue
        if "=" not in line:
            raise ParseError(lineno, "expected 'key = value'")
        if current is None:
            raise ParseError(lineno, "directive before any section header")
        key, value = line.split("=", 1)
        current.items.append((key.strip(), value.strip(), lineno))
    return sections


# every integer of a file must fit the int64 arrays it is stored in
_INT64 = range(-(2**63), 2**63)


def _parse_matrix(value: str, line: int) -> list[list[int]]:
    rows = [_parse_int_list(chunk, line) for chunk in value.split("/")]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ParseError(line, "matrix must be square with rows separated by '/'")
    return rows


def _parse_int_list(value: str, line: int) -> list[int]:
    try:
        out = [int(tok) for tok in value.split()]
    except ValueError as exc:
        raise ParseError(line, f"bad integer list {value!r}") from exc
    if any(x not in _INT64 for x in out):
        raise ParseError(line, f"integer out of int64 range in {value!r}")
    return out


def _build_group(section: _Section, name: str) -> tuple[FiniteGroup, dict]:
    """Returns the group and a map generator-name -> element index."""
    perms = []
    perm_names = []
    table = None
    for key, value, line in section.items:
        if key.startswith("perm "):
            gname = key[5:].strip()
            perm = _parse_int_list(value, line)
            if gname == "e":
                raise ValidationError(line, "generator name 'e' is reserved for the identity")
            if gname in perm_names:
                raise ValidationError(line, f"generator {gname!r} is named twice")
            if sorted(perm) != list(range(len(perm))):
                raise ValidationError(line, f"generator {gname!r} is not a permutation of "
                                            f"0..{len(perm) - 1}: {value}")
            if perms and len(perm) != len(perms[0]):
                raise ValidationError(line, f"generator {gname!r} moves {len(perm)} points, but "
                                            f"generator {perm_names[0]!r} moves {len(perms[0])}")
            if perm == list(range(len(perm))):
                raise ValidationError(line, f"generator {gname!r} is the identity; "
                                            "write 'table = 0' for the trivial group")
            if perm in perms:
                raise ValidationError(line, f"generator {gname!r} repeats generator "
                                            f"{perm_names[perms.index(perm)]!r}")
            perm_names.append(gname)
            perms.append(perm)
        elif key == "table":
            table = [_parse_int_list(chunk, line) for chunk in value.split("/")]
        elif key in ("embed K1", "embed K2"):
            continue
        else:
            raise ParseError(line, f"unknown directive {key!r} in group section")
    if table is not None and perms:
        raise ParseError(section.line, "give either a table or permutation generators, not both")
    if table is not None:
        try:
            group = FiniteGroup(table, name=name)
        except ValueError as exc:
            raise ValidationError(section.line, f"group {name}: {exc}") from exc
        return group, {}
    if not perms:
        raise ParseError(section.line, f"group {name} needs perm generators or a table")
    try:
        group = FiniteGroup.from_permutations(perms, gen_names=perm_names, name=name)
    except ValueError as exc:
        raise ValidationError(section.line, f"group {name}: {exc}") from exc
    # distinct nontrivial generators are the first elements after the
    # identity in breadth-first order, in the order they were written
    return group, {nm: k for k, nm in enumerate(perm_names, start=1)}


def parse(path: str) -> InstanceFile:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_text(text)


def parse_text(text: str) -> InstanceFile:
    sections = _split_sections(text)
    by_header = {}
    for s in sections:
        by_header.setdefault(s.header, []).append(s)

    def unique(header):
        found = by_header.get(header, [])
        if len(found) != 1:
            line = found[1].line if len(found) > 1 else 1
            raise ParseError(line, f"need exactly one [{header}] section")
        return found[0]

    inst = unique("instance")
    name = None
    characteristic = None
    for key, value, line in inst.items:
        if key == "name":
            name = value
        elif key == "characteristic":
            try:
                characteristic = int(value)
            except ValueError as exc:
                raise ParseError(line, f"bad characteristic {value!r}") from exc
            char_line = line
        else:
            raise ParseError(line, f"unknown directive {key!r} in [instance]")
    if name is None or characteristic is None:
        raise ParseError(inst.line, "[instance] needs name and characteristic")
    if not is_prime(characteristic):
        raise ParseError(char_line, f"characteristic {characteristic} is not prime")
    try:
        Field(characteristic)
    except ValueError as exc:  # a prime too large for exact arithmetic
        raise ParseError(char_line, str(exc)) from exc

    k1_section = unique("group K1")
    k2_section = unique("group K2")
    i_section = unique("subgroup I")
    k1, gens1 = _build_group(k1_section, "K1")
    k2, gens2 = _build_group(k2_section, "K2")
    sub, gens_i = _build_group(i_section, "I")

    embeds = {}
    for key, value, line in i_section.items:
        if key in ("embed K1", "embed K2"):
            target = key.split()[1]
            mapping = _parse_int_list(value, line)
            if len(mapping) != sub.order:
                raise ParseError(line, f"embedding list needs {sub.order} entries")
            order = (k1 if target == "K1" else k2).order
            if not all(0 <= x < order for x in mapping):
                raise ParseError(line, f"embedding entries must be elements 0..{order - 1} "
                                       f"of {target}")
            embeds[target] = (mapping, line)
    if set(embeds) != {"K1", "K2"}:
        raise ParseError(i_section.line, "[subgroup I] needs 'embed K1' and 'embed K2' lists")

    emb1 = SubgroupEmbedding(sub, k1, embeds["K1"][0])
    emb2 = SubgroupEmbedding(sub, k2, embeds["K2"][0])
    for emb, (mapping, line) in ((emb1, embeds["K1"]), (emb2, embeds["K2"])):
        try:
            emb.validate()
        except (NotInjective, NotHomomorphism) as exc:
            raise ValidationError(line, str(exc)) from exc
    datum = AmalgamDatum(k1, k2, sub, emb1, emb2, name=name)

    gen_maps = {TAG_K1: gens1, TAG_K2: gens2, TAG_I: gens_i}
    module_specs = {}
    for s in by_header.get("module", []):
        raise ParseError(s.line, "module sections need a name: [module NAME]")
    for s in sections:
        if s.header.startswith("module "):
            mod_name = s.header[7:].strip()
            group_tag = None
            gens = {}
            for key, value, line in s.items:
                if key == "group":
                    if value not in (TAG_K1, TAG_K2, TAG_I):
                        raise ParseError(line, f"module group must be K1, K2 or I, got {value!r}")
                    group_tag = value
                elif key.startswith("mat "):
                    gname = key[4:].strip()
                    if group_tag is None:
                        raise ParseError(line, "module needs 'group = ...' before matrices")
                    if gname not in gen_maps[group_tag]:
                        raise ParseError(line, f"unknown generator {gname!r} for {group_tag}")
                    gens[gen_maps[group_tag][gname]] = _parse_matrix(value, line)
                else:
                    raise ParseError(line, f"unknown directive {key!r} in module section")
            if group_tag is None or not gens:
                raise ParseError(s.line, f"module {mod_name!r} needs a group and matrices")
            module_specs[mod_name] = (group_tag, gens, s.line)

    grep_specs = {}
    for s in sections:
        if s.header.startswith("grep "):
            g_name = s.header[5:].strip()
            mats1, mats2 = {}, {}
            for key, value, line in s.items:
                if key.startswith("mat "):
                    rest = key[4:].split()
                    if len(rest) != 2 or rest[0] not in (TAG_K1, TAG_K2):
                        raise ParseError(line, "grep matrices look like 'mat K1 a = ...'")
                    side_tag, gname = rest
                    gmap = gen_maps[side_tag]
                    if gname not in gmap:
                        raise ParseError(line, f"unknown generator {gname!r} for {side_tag}")
                    target = mats1 if side_tag == TAG_K1 else mats2
                    target[gmap[gname]] = _parse_matrix(value, line)
                else:
                    raise ParseError(line, f"unknown directive {key!r} in grep section")
            if not mats1 or not mats2:
                raise ParseError(s.line, f"grep {g_name!r} needs matrices for both K1 and K2")
            grep_specs[g_name] = (mats1, mats2, s.line)

    instance = InstanceFile(name, characteristic, datum, module_specs, grep_specs)
    # building with the declared characteristic validates every matrix block
    instance._declared = instance.build()
    return instance
