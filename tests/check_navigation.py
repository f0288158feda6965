"""Check, with the standard library alone, that navigation and ``Address``
agree with the reference walks and checks in ``oracles.py`` on the shipped
sample data, on hand-built KBs with repeated numbers and on the empty KB.

It needs neither pytest nor Hypothesis nor click, so it runs on any Python
the package supports, where ``Enum`` internals and the behaviour of
``dataclass`` and ``cached_property`` differ between minor versions::

    PYTHONPATH=src python tests/check_navigation.py

It prints one line of counts and exits 0 when every answer agrees, or
prints each disagreement and exits 1. ``test_model.py`` runs the same
checks under pytest.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import sys
from typing import Optional

from corpusgen import fixture_text
from oracles import (
    paragraph_positions, reference_address_new, reference_address_str, reference_head_address,
    reference_resolve,
)
from rogetkb.model import (
    MAX_DIGITS, Address, AddressError, Entry, Head, Paragraph, PartOfSpeech, RogetClass,
    Section, SemicolonGroup, ThesaurusKB,
)
from rogetkb.parser import parse_source

# A full-depth address of valid numbers, and for each component the values
# at the edges of the constructor's straight-line path: the bounds of its
# range, plain ints past them, bools, None, and what is not an int. Then the
# head numbers ``head_address`` is asked for, plain ints or not.
NUMBER_END = 10**MAX_DIGITS
NUMBER_EDGES = (0, 1, 2, NUMBER_END - 1, NUMBER_END, -1, -NUMBER_END, True, False, None, 1.0,
                "1")
POS_EDGES = (None, *PartOfSpeech, "N", 0, True)
EDGE_COMPONENTS = (*[NUMBER_EDGES] * 3, POS_EDGES, *[NUMBER_EDGES] * 3)
ENTRY = (1, NUMBER_END - 1, 1, PartOfSpeech.ADVERB, 0, NUMBER_END - 1, 0)
HEAD_ARGUMENTS = (*range(-1, 200), 5.0, 1.0, 0.5, float("nan"), True, False, None, "1", (1,),
                  [1], {1}, NUMBER_END)


def outcome(call, *args, **kwargs):
    """What ``call`` gives: ``("ok", value)`` or ``("error", message)`` of
    an ``AddressError``."""
    try:
        return "ok", call(*args, **kwargs)
    except AddressError as exc:
        return "error", str(exc)


def sample_kbs() -> dict[str, ThesaurusKB]:
    """The shipped samples, a hand-built KB whose classes, sections and
    heads repeat numbers or hold 0, and the empty KB."""
    def group(*texts):
        return SemicolonGroup(tuple(Entry(text) for text in texts))

    noun = Paragraph(PartOfSpeech.NOUN, (group("a", "b"), group("c")))
    verb = Paragraph(PartOfSpeech.VERB, (group("d"),))
    repeated = ThesaurusKB((
        RogetClass(1, "first", (
            Section(1, "s", (Head(1, "h", (noun, verb, noun)), Head(1, "again", (verb,)))),
            Section(1, "again", (Head(2, "hidden", (noun,)),)),
            Section(2, "t", (Head(0, "zero", (verb,)), Head(3, "h", ()))),
        )),
        RogetClass(1, "second", (Section(3, "hidden", (Head(4, "h", (noun,)),)),)),
        RogetClass(0, "zero", (Section(1, "s", (Head(5, "h", (verb,)),)),)),
        RogetClass(2, "third", (
            Section(1, "s", (Head(1, "h", (Paragraph(PartOfSpeech.ADVERB, ()),)),)),
        )),
    ))
    kbs = {name: parse_source(fixture_text(name)).kb
           for name in ("head42.roget", "two_class.roget")}
    kbs.update({"repeated numbers": repeated, "empty": ThesaurusKB(())})
    return kbs


def addresses(kb: ThesaurusKB):
    """Every address of small numbers at every depth around the KB's own
    nodes, with indices up to two past each paragraph, group and entry."""
    heads = {head.number for cls in kb.classes for sec in cls.sections for head in sec.heads}
    numbers = sorted({n for n in heads | {1, 2, 3, 4, 43, 184} if type(n) is int and n > 0})
    for class_num, section_num in itertools.product(range(1, 4), range(1, 5)):
        yield Address(class_num)
        yield Address(class_num, section_num)
        for head_num in numbers:
            yield Address(class_num, section_num, head_num)
            for pos, para_idx in itertools.product(PartOfSpeech, range(4)):
                yield Address(class_num, section_num, head_num, pos, para_idx)
    for cls in kb.classes:
        for sec in cls.sections:
            for head in sec.heads:
                if min(cls.number, sec.number, head.number) < 1:
                    continue
                for pos, idx, para in paragraph_positions(head):
                    prefix = (cls.number, sec.number, head.number, pos, idx)
                    for sg_idx in range(len(para.groups) + 2):
                        yield Address(*prefix, sg_idx)
                        entries = para.groups[sg_idx].entries if sg_idx < len(para.groups) else ()
                        for entry_idx in range(len(entries) + 2):
                            yield Address(*prefix, sg_idx, entry_idx)


def resolve_problem(kb: ThesaurusKB, address: Address) -> Optional[str]:
    """None when ``kb.resolve(address)`` gives the walk's node (``is``) or
    raises its message; else what differs."""
    expected, got = outcome(reference_resolve, kb, address), outcome(kb.resolve, address)
    same = got[1] is expected[1] if got[0] == "ok" else got[1] == expected[1]
    if got[0] == expected[0] and same:
        return None
    return f"resolve({address!r}) gave {got}, the walk {expected}"


def head_address_problem(kb: ThesaurusKB, number) -> Optional[str]:
    """None when ``kb.head_address(number)`` gives the walk's address, of
    the same type, or None, or raises its message; else what differs."""
    expected, got = outcome(reference_head_address, kb, number), outcome(kb.head_address, number)
    if got == expected and type(got[1]) is type(expected[1]):
        return None
    return f"head_address({number!r}) gave {got}, the walk {expected}"


def check_navigation(name: str, kb: ThesaurusKB, problems: list[str]) -> tuple[int, int]:
    """Append to ``problems`` each answer of ``resolve`` or ``head_address``
    that is not the walk's, and any change the tables make to pickling,
    equality or hashing; return the numbers of calls of each."""
    pickled = pickle.dumps(kb)
    found = [resolve_problem(kb, address) for address in addresses(kb)]
    found += [head_address_problem(kb, number) for number in HEAD_ARGUMENTS]
    problems.extend(f"{name}: {problem}" for problem in found if problem is not None)
    again = pickle.loads(pickle.dumps(kb))
    if (pickle.dumps(kb) != pickled or again != kb or hash(again) != hash(kb)
            or copy.deepcopy(kb) != kb):
        problems.append(f"{name}: the built tables changed pickling, equality or hashing")
    if set(vars(again)) != {"classes"}:
        problems.append(f"{name}: an unpickled KB holds {sorted(vars(again))}")
    return len(found) - len(HEAD_ARGUMENTS), len(HEAD_ARGUMENTS)


def check_addresses(problems: list[str]) -> int:
    """Append to ``problems`` each verdict of ``Address`` that is not the
    loop's, with one or two components of an address of each depth set to
    an edge value; a full-depth one also through ``_replace`` and
    unpickling. Return the number of addresses checked."""
    checked = 0
    for depth in (1, 2, 3, 5, 6, 7):
        base = [*ENTRY[:depth], *[None] * (7 - depth)]
        for positions in itertools.chain(itertools.combinations(range(7), 1),
                                         itertools.combinations(range(7), 2)):
            for values in itertools.product(*(EDGE_COMPONENTS[p] for p in positions)):
                components = list(base)
                for position, value in zip(positions, values):
                    components[position] = value
                expected = outcome(reference_address_new, Address, *components)
                got = outcome(Address, *components)
                if expected[0] == "ok" and got[0] == "ok":
                    same = (type(got[1]) is Address and got[1] == expected[1]
                            and list(map(type, got[1])) == list(map(type, expected[1]))
                            and str(got[1]) == reference_address_str(got[1]))
                else:
                    same = got == expected
                if not same:
                    problems.append(f"Address{tuple(components)!r} gave {got}, the loop {expected}")
                if depth == 7 and len(positions) == 1:
                    forged = tuple.__new__(Address, components)
                    field = Address._fields[positions[0]]
                    for path, answer in (
                        ("_replace", outcome(Address(*ENTRY)._replace, **{field: values[0]})),
                        ("unpickling", outcome(pickle.loads, pickle.dumps(forged))),
                    ):
                        if answer != expected:
                            problems.append(f"{path} of {tuple(components)!r} gave {answer}, "
                                            f"the loop {expected}")
                checked += 1
    return checked


def main() -> int:
    problems: list[str] = []
    resolves = heads = 0
    for name, kb in sample_kbs().items():
        r, h = check_navigation(name, kb, problems)
        resolves, heads = resolves + r, heads + h
    checked = check_addresses(problems)
    for problem in problems:
        print(problem)
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"Python {version}: {resolves} resolve, {heads} head_address and {checked} Address "
          f"calls; {len(problems)} disagree with the references")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
