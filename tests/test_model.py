from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpusgen import fixture_text
from oracles import (
    address_rule, paragraph_positions, reference_address_str, reference_sort_key, walk_entries,
    walk_groups, walk_paragraphs,
)
from rogetkb.aligner import class_coverage
from rogetkb.model import (
    Address,
    AddressError,
    Head,
    Paragraph,
    PartOfSpeech,
    RogetClass,
    Section,
    SemicolonGroup,
    ThesaurusKB,
)
from rogetkb.text import normalize, strip_gloss


class TestNormalize:
    def test_basic(self):
        assert normalize("  Decrement  ") == "decrement"
        assert normalize("natural\t process") == "natural process"
        assert normalize("RAKE-OFF") == "rake-off"
        assert normalize("o'clock") == "o'clock"
        assert normalize("") == ""

    @given(st.text())
    def test_idempotent(self, s):
        assert normalize(normalize(s)) == normalize(s)

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126)))
    def test_case_and_space_invariant(self, s):
        assert normalize(s.upper()) == normalize(s.lower().strip())


def test_strip_gloss():
    assert strip_gloss("Decrement: thing deducted") == "Decrement"
    assert strip_gloss("Existence") == "Existence"
    assert strip_gloss("Space: indefinite space") == "Space"


class TestPartOfSpeech:
    def test_exactly_five(self):
        assert [p.value for p in PartOfSpeech] == ["N", "ADJ", "VB", "ADV", "INT"]

    def test_parse_is_case_insensitive(self):
        assert PartOfSpeech.parse("n") is PartOfSpeech.NOUN
        assert PartOfSpeech.parse("ADJ") is PartOfSpeech.ADJECTIVE

    def test_parse_rejects_other_tags(self):
        with pytest.raises(ValueError):
            PartOfSpeech.parse("NOUN")

    def test_display(self):
        assert [p.display for p in PartOfSpeech] == ["N.", "Adj.", "Vb.", "Adv.", "Int."]


# Component draws for the address checks: numbers around each minimum plus
# values that are not numbers. No bools; ``None`` is a class value only in
# the test of accepted numbers.
_NUMBER_VALUES = st.none() | st.integers(-2, 3) | st.sampled_from([1.0, "1", "x"])
_CLASS_VALUES = st.integers(-2, 3) | st.sampled_from([1.0, "1"])
_POS_VALUES = st.none() | st.sampled_from(PartOfSpeech)


# Numbers for the text checks: up to the longest that ``str`` writes on
# every Python, 4,300 digits.
def _text_numbers(minimum: int):
    return st.integers(minimum, 10**4300 - 1) | st.just(10**4300 - 1)


# addresses of every depth with such numbers
_ADDRESSES = st.builds(
    lambda components, depth: Address(*components[:depth]),
    st.tuples(*[_text_numbers(1)] * 3, st.sampled_from(PartOfSpeech), *[_text_numbers(0)] * 3),
    st.sampled_from([1, 2, 3, 5, 6, 7]),
)


class TestAddress:
    def test_str_and_parse_round_trip_all_depths(self):
        samples = [
            "7",
            "1.3",
            "1.3.42",
            "1.3.42:N:0",
            "1.3.42:N:0:4",
            "1.3.42:N:0:4:2",
            "2.1.183:ADV:1:0:0",
        ]
        for text in samples:
            assert str(Address.parse(text)) == text

    @given(_ADDRESSES)
    def test_parse_inverts_str(self, address):
        assert Address.parse(str(address)) == address

    @given(_ADDRESSES)
    def test_str_and_sort_key_print_what_the_reference_prints(self, address):
        assert str(address) == reference_address_str(address)
        assert address.sort_key() == reference_sort_key(address)

    @given(st.text(alphabet="0123456789.:+_- NADJVBIT٣²"))
    def test_parse_reads_only_what_str_writes(self, text):
        try:
            address = Address.parse(text)
        except AddressError:
            return
        assert str(address) == text.strip()

    def test_levels(self):
        assert Address.parse("7").level == 1
        assert Address.parse("1.3").level == 2
        assert Address.parse("1.3.42").level == 3
        assert Address.parse("1.3.42:N:0").level == 5
        assert Address.parse("1.3.42:N:0:4").level == 6
        assert Address.parse("1.3.42:N:0:4:2").level == 7

    def test_component_gaps_rejected(self):
        with pytest.raises(AddressError):
            Address(1, None, 42)
        with pytest.raises(AddressError):
            Address(1, 3, 42, None, None, 0)

    def test_pos_and_para_come_together(self):
        with pytest.raises(AddressError):
            Address(1, 3, 42, PartOfSpeech.NOUN, None)

    def test_pos_must_be_a_part_of_speech(self):
        # anything else would construct and then break ``str`` and ``sort_key``
        for pos in ("N", "NOUN", 0, True):
            with pytest.raises(AddressError, match="^bad part of speech component "):
                Address(1, 3, 42, pos, 0)
        with pytest.raises(AddressError, match="^bad part of speech component 'N'$"):
            Address.parse("1.3.42:N:0:4:2")._replace(pos="N")

    def test_bad_components_rejected(self):
        with pytest.raises(AddressError):
            Address(0)
        with pytest.raises(AddressError):
            Address(1, 3, 42, PartOfSpeech.NOUN, -1)
        with pytest.raises(AddressError):
            Address.parse("1.3.42:N")
        with pytest.raises(AddressError):
            Address.parse("1.3.42:XX:0")
        with pytest.raises(AddressError):
            Address.parse("")
        with pytest.raises(AddressError):
            Address.parse("1.2.3.4")
        for text in ("1.x", "1.3:N:0", "1.3.42:N:x", "1.3.42:n:0", "1.3.42:Adj:0"):
            with pytest.raises(AddressError):
                Address.parse(text)

    def test_none_class_and_bool_components_rejected(self):
        with pytest.raises(AddressError, match="^bad class component None$"):
            Address(None)
        with pytest.raises(AddressError, match="^bad class component True$"):
            Address(True, True, True)
        with pytest.raises(AddressError, match="^bad head component False$"):
            Address(1, 3, False)
        with pytest.raises(AddressError, match="^bad entry component True$"):
            Address(1, 3, 42, PartOfSpeech.NOUN, 0, 0, True)

    @given(
        st.tuples(_CLASS_VALUES, *[_NUMBER_VALUES] * 2, _POS_VALUES, *[_NUMBER_VALUES] * 3)
    )
    def test_checks_match_the_original_rule(self, components):
        expected = address_rule(*components)
        try:
            address = Address(*components)
        except AddressError as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            assert address == components

    @given(st.tuples(
        st.none() | st.booleans() | _CLASS_VALUES, *[st.booleans() | _NUMBER_VALUES] * 2,
        _POS_VALUES, *[st.booleans() | _NUMBER_VALUES] * 3,
    ))
    def test_accepted_numbers_are_plain_ints(self, components):
        try:
            address = Address(*components)
        except AddressError:
            return
        assert type(address.class_num) is int
        numbers = address[1:3] + address[4:]
        assert all(value is None or type(value) is int for value in numbers)

    def test_numbers_have_at_most_4300_digits(self):
        # the default int-string limit: a longer number could not be printed
        entry = [1, 1, 1, PartOfSpeech.NOUN, 0, 0, 0]
        for position in (0, 1, 2, 4, 5, 6):
            address = Address(*entry[:position], 10**4300 - 1, *entry[position + 1:])
            assert Address.parse(str(address)) == address
            assert repr(address).startswith("Address(")
            with pytest.raises(AddressError, match="component of more than 4300 digits$"):
                Address(*entry[:position], 10**4300, *entry[position + 1:])
        with pytest.raises(AddressError, match="^bad class component of more than 4300 digits$"):
            Address(-(10**4300))

    def test_replace_and_make_validate(self):
        entry = Address.parse("1.3.42:N:0:4:2")
        assert entry._replace(entry_idx=3) == Address.parse("1.3.42:N:0:4:3")
        with pytest.raises(AddressError, match="bad group component -1"):
            entry._replace(sg_idx=-1)
        with pytest.raises(AddressError, match="paragraph address"):
            entry._replace(pos=None)
        with pytest.raises(AddressError, match="bad class component None"):
            Address._make([None] * 7)

    def test_pickle_and_deepcopy_round_trip(self):
        for text in ("7", "1.3.42", "1.3.42:N:0:4:2"):
            address = Address.parse(text)
            for again in (pickle.loads(pickle.dumps(address)), copy.deepcopy(address)):
                assert type(again) is Address
                assert again == address
                assert hash(again) == hash(address)
                assert str(again) == text

    def test_sort_key_orders_pos_canonically(self):
        n1 = Address.parse("1.1.1:N:1:0")
        adj0 = Address.parse("1.1.1:ADJ:0:0")
        vb0 = Address.parse("1.1.1:VB:0:0")
        assert sorted([vb0, adj0, n1], key=Address.sort_key) == [n1, adj0, vb0]

    def test_group_prefix(self):
        entry = Address.parse("1.3.42:N:0:4:2")
        assert str(entry.group_prefix()) == "1.3.42:N:0:4"
        with pytest.raises(AddressError):
            Address.parse("1.3.42").group_prefix()


class TestResolve:
    def test_head_42(self, kb42):
        head = kb42.resolve(Address(1, 3, 42))
        assert isinstance(head, Head)
        assert head.name == "Decrement: thing deducted"

    def test_class_node(self, kb42):
        cls = kb42.resolve(Address(1))
        assert isinstance(cls, RogetClass)
        assert cls.name == "Abstract Relations"

    def test_section_node(self, kb42):
        sec = kb42.resolve(Address(1, 3))
        assert isinstance(sec, Section)
        assert [head.number for head in sec.heads] == [42]

    def test_group_index_past_end(self, kb42):
        with pytest.raises(AddressError, match="group"):
            kb42.resolve(Address(1, 3, 42, PartOfSpeech.NOUN, 0, 99))

    def test_missing_levels_named(self, kb42):
        with pytest.raises(AddressError, match="class"):
            kb42.resolve(Address(9))
        with pytest.raises(AddressError, match="section"):
            kb42.resolve(Address(1, 4))
        with pytest.raises(AddressError, match="head"):
            kb42.resolve(Address(1, 3, 43))
        with pytest.raises(AddressError, match="paragraph"):
            kb42.resolve(Address(1, 3, 42, PartOfSpeech.VERB, 0))
        with pytest.raises(AddressError, match="entry 99"):
            kb42.resolve(Address(1, 3, 42, PartOfSpeech.NOUN, 0, 0, 99))

    def test_round_trip_every_node(self, kb2):
        for addr, group in walk_groups(kb2):
            assert kb2.resolve(addr) is group
        for addr, entry in walk_entries(kb2):
            assert kb2.resolve(addr) is entry
        for addr, para in walk_paragraphs(kb2):
            assert kb2.resolve(addr) is para


class TestHeadByNumber:
    def test_present(self, kb42):
        assert kb42.resolve(kb42.head_address(42)).number == 42

    def test_absent(self, kb42):
        assert kb42.head_address(9999) is None

    def test_empty_kb(self):
        assert ThesaurusKB(()).head_address(1) is None


class TestCounts:
    def test_head42_totals(self, kb42):
        total = kb42.count_nodes()
        assert (total.sections, total.heads, total.paragraphs) == (1, 1, 1)
        assert (total.groups, total.entries) == (11, 27)

    def test_two_class_rows(self, kb2):
        by_class = {r.class_num: r for r in class_coverage(kb2, frozenset()).rows}
        r1, r2 = by_class[1], by_class[2]
        assert (r1.sections, r1.heads, r1.paragraphs, r1.groups, r1.strings) == (2, 3, 7, 10, 23)
        assert (r2.sections, r2.heads, r2.paragraphs, r2.groups, r2.strings) == (1, 2, 5, 8, 16)
        t = kb2.count_nodes()
        assert (t.sections, t.heads, t.paragraphs, t.groups, t.entries) == (3, 5, 12, 18, 39)

    def test_empty_kb(self):
        empty = ThesaurusKB(())
        assert class_coverage(empty, frozenset()).rows == ()
        assert empty.count_nodes().entries == 0


class TestEntryStrings:
    def test_fixtures(self, kb42, kb2):
        for kb in (kb42, kb2):
            assert kb.entry_strings() == {entry.text for _, entry in walk_entries(kb)}

    def test_empty_kb(self):
        assert ThesaurusKB(()).entry_strings() == frozenset()


def test_keyword_is_first_entry(kb2, kb42):
    for kb in (kb2, kb42):
        for _, para in walk_paragraphs(kb):
            assert para.keyword == normalize(para.groups[0].entries[0].text)


def test_fixed_depths(kb2, kb42):
    for kb in (kb2, kb42):
        for addr, _ in walk_groups(kb):
            assert addr.level == 6
        for addr, _ in walk_entries(kb):
            assert addr.level == 7


def test_checksum_ignores_formatting(kb42):
    from rogetkb.parser import parse_source

    original = fixture_text("head42.roget")
    reformatted = original.replace(
        "decrement, deduction,", "DECREMENT ,  deduction ,"
    ).replace("// Single-head fixture", "// different comment")
    other = parse_source(reformatted).kb
    assert other == kb42
    assert other.canonical_source() == kb42.canonical_source()


def test_paragraph_positions_index_within_pos(kb2):
    head = kb2.resolve(kb2.head_address(184))
    positions = list(paragraph_positions(head))
    noun_indices = [idx for pos, idx, _ in positions if pos is PartOfSpeech.NOUN]
    assert noun_indices == [0, 1]
