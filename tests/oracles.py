"""Independent oracles the implementation must agree with.

The BFS oracle materializes the taxonomy as an explicit node/edge graph
and measures shortest paths by search, sharing no code with the arithmetic
distance. The token counter recounts entries straight off the source text.
The address walks read only the dataclass fields and number each paragraph
within its part of speech with their own counter, where the library slices
``Head.pos_paragraphs``; the graph, the table recount and the reference
index take their addresses from them. The table recount rebuilds every
count and coverage figure from the addresses the walks yield, without the
nested tree loops the tables use; the reference export takes every count,
share and coverage figure from it and from the entry walk. The reference
index collects validated addresses in walk order and sorts each posting
list, where ``build_index`` relies on the walk's order. The address rule
is the check the original dataclass ``Address`` ran in ``__post_init__``,
kept verbatim; the reference constructor is the loop that the tuple
``Address`` ran on every construction before its straight-line path, kept
verbatim. The reference navigation is ``ThesaurusKB.resolve`` and
``head_address`` as they walked the tree before they read tables, kept
verbatim. The reference lexicon loader is the interchange reader
that built the synset graph record by record, before one reader served
both the graph and the lemma set, kept verbatim except that it reads each
tag and relation name through the enum's own constructor, as the enums'
parsers then did, so that it shares no lookup table with the reader.
The diagnostic filters read each diagnostic's ``severity`` field. The
paragraph string set reads each entry's ``text`` and each cross-reference's
``keyword`` straight off the groups, not through the labeller's
``group_strings``. The mini-net string set reads the lemmas of each seed
and of every synset in each sense's ``reached`` groups. The full-corpus
check reads class and head numbers off the dataclass fields, not through
``ThesaurusKB.walk_heads``. The reference renderers are the CLI's and the
address's printing code as it was before one rule per form replaced it,
kept verbatim: the ``stats`` formatting that wrote each table column by
column (fed with rows rebuilt from the table recount), ``render_labelled``
with one pass per label, and ``Address.__str__`` and ``sort_key`` with a
branch or an expression per component. The reference parser is
``parse_source`` with its helpers, kept verbatim.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from types import SimpleNamespace
from typing import Iterator, NamedTuple, Optional

from rogetkb.aligner import LabelledParagraph
from rogetkb.bundle import _VERSION, KBBundle
from rogetkb.index import LexicalIndex
from rogetkb.lexnet import (
    LABEL_PRECEDENCE, LexiconError, MiniNet, RelationType, SenseNeighbourhood, Synset,
    SynsetResource,
)
from rogetkb.model import (
    MAX_DIGITS, SG_LEVEL, Address, AddressError, CrossReference, Entry, Head, Node, Paragraph,
    PartOfSpeech, RogetClass, Section, SemicolonGroup, ThesaurusKB,
)
from rogetkb.parser import ParseDiagnostic, ParseResult
from rogetkb.text import normalize


def paragraph_positions(head: Head) -> Iterator[tuple[PartOfSpeech, int, Paragraph]]:
    """Each paragraph of ``head`` in source order, with its index within
    its part of speech."""
    counters: Counter = Counter()
    for para in head.paragraphs:
        yield para.pos, counters[para.pos], para
        counters[para.pos] += 1


def walk_paragraphs(kb: ThesaurusKB) -> Iterator[tuple[Address, Paragraph]]:
    """Every paragraph with its address, in taxonomy order."""
    for cls in kb.classes:
        for sec in cls.sections:
            for head in sec.heads:
                for pos, idx, para in paragraph_positions(head):
                    yield Address(cls.number, sec.number, head.number, pos, idx), para


def walk_groups(kb: ThesaurusKB) -> Iterator[tuple[Address, SemicolonGroup]]:
    """Every semicolon group with its address, in taxonomy order."""
    for para_addr, para in walk_paragraphs(kb):
        for sg_idx, group in enumerate(para.groups):
            yield Address(*para_addr[:5], sg_idx), group


def walk_entries(kb: ThesaurusKB) -> Iterator[tuple[Address, Entry]]:
    """Every entry occurrence with its address, in taxonomy order."""
    for sg_addr, group in walk_groups(kb):
        for entry_idx, entry in enumerate(group.entries):
            yield Address(*sg_addr[:SG_LEVEL], entry_idx), entry


def via(sense: SenseNeighbourhood, relation: RelationType) -> tuple[Synset, ...]:
    """The synsets ``sense`` reaches by ``relation``, or () when none."""
    return next((group for rel, group in sense.reached if rel is relation), ())


def errors(result: ParseResult) -> tuple[ParseDiagnostic, ...]:
    """The error-severity diagnostics of ``result``, in order."""
    return tuple(d for d in result.diagnostics if d.severity == "error")


def warnings(result: ParseResult) -> tuple[ParseDiagnostic, ...]:
    """The warning-severity diagnostics of ``result``, in order."""
    return tuple(d for d in result.diagnostics if d.severity == "warning")


def paragraph_strings(para: Paragraph) -> frozenset[str]:
    """Every entry text and cross-reference keyword of ``para``."""
    out: set[str] = set()
    for group in para.groups:
        for entry in group.entries:
            out.add(entry.text)
            out.update(ref.keyword for ref in entry.cross_refs)
    return frozenset(out)


def net_strings(net: MiniNet) -> frozenset[str]:
    """Every lemma of every synset in the net, seeds included."""
    out: set[str] = set()
    for sense in net.senses:
        out.update(sense.seed.lemmas)
        for _, group in sense.reached:
            for synset in group:
                out.update(synset.lemmas)
    return frozenset(out)


def full_corpus_problems(kb: ThesaurusKB) -> list[str]:
    """What keeps ``kb`` from being the complete eight-class corpus of 990
    heads; empty when nothing does."""
    problems = []
    present = [cls.number for cls in kb.classes]
    if present != list(range(1, 9)):
        problems.append(f"expected classes 1..8, found {present}")
    heads = [head.number for cls in kb.classes for sec in cls.sections for head in sec.heads]
    if heads and heads[-1] > 990:
        problems.append(f"head numbers exceed 990 (max {heads[-1]})")
    if len(heads) != 990:
        problems.append(f"expected 990 heads, found {len(heads)}")
    return problems


def materialize_graph(kb: ThesaurusKB) -> tuple[dict, dict]:
    """Explicit undirected graph: node keys are path tuples, root is ().
    Returns (adjacency, sg_node_by_address_string)."""
    adjacency: dict[tuple, set[tuple]] = {(): set()}
    sg_nodes: dict[str, tuple] = {}

    def link(parent: tuple, child: tuple) -> None:
        adjacency.setdefault(parent, set()).add(child)
        adjacency.setdefault(child, set()).add(parent)

    for cls in kb.classes:
        c = ("class", cls.number)
        link((), c)
        for sec in cls.sections:
            s = c + ("section", sec.number)
            link(c, s)
            for head in sec.heads:
                h = s + ("head", head.number)
                link(s, h)
                for pos, para_idx, para in paragraph_positions(head):
                    g = h + ("posgroup", pos.value)
                    link(h, g)  # re-linking an existing POS group is a no-op
                    p = g + ("para", para_idx)
                    link(g, p)
                    for sg_idx in range(len(para.groups)):
                        n = p + ("sg", sg_idx)
                        link(p, n)
                        addr = Address(
                            cls.number, sec.number, head.number, pos, para_idx, sg_idx
                        )
                        sg_nodes[str(addr)] = n
    return adjacency, sg_nodes


def bfs_distance(adjacency: dict, start: tuple, goal: tuple) -> int:
    if start == goal:
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        node, dist = queue.popleft()
        for nxt in adjacency[node]:
            if nxt == goal:
                return dist + 1
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, dist + 1))
    raise AssertionError("graph is connected; unreachable")


def count_entry_tokens(source: str) -> int:
    """Entries in a source document, recounted from raw text: comma and
    semicolon delimited tokens that are not comments, directives, or pure
    cross-references."""
    count = 0
    for line in source.splitlines():
        line = line.strip()
        if not line or line.startswith("//") or line.startswith("#"):
            continue
        for segment in line.split(";"):
            for token in segment.split(","):
                token = token.strip()
                if token and not token.startswith("@"):
                    count += 1
    return count


def recount_tables(
    kb: ThesaurusKB, common: frozenset[str], lemmas: frozenset[str], *, strip_gloss: bool
) -> tuple[dict, dict, Counter]:
    """Per-head, per-class and per-POS tallies recounted from the addresses
    of ``walk_paragraphs`` and ``walk_entries``.

    Returns ``(heads, classes, pos)``. ``heads`` maps a head number to its
    class, name, whether the (optionally gloss-stripped) name is in
    ``lemmas`` or ``common``, and its paragraph, group, entry, common-keyword
    and common-entry counts. ``classes`` maps a class number to the same
    counts summed, plus its section and head counts. ``pos`` counts entry
    occurrences per part of speech. Every container of a parsed KB is
    non-empty, so distinct addresses count the sections, heads and groups.
    """
    def name_key(name: str) -> str:
        if strip_gloss:
            name = name.split(":", 1)[0]
        return " ".join(name.split()).lower()

    names = {
        head.number: head.name for cls in kb.classes for sec in cls.sections for head in sec.heads
    }
    heads: dict[int, dict] = {}
    for addr, para in walk_paragraphs(kb):
        if addr.head_num not in heads:
            name = names[addr.head_num]
            heads[addr.head_num] = {
                "class": addr.class_num, "section": addr.section_num, "name": name,
                "in_lex": name_key(name) in lemmas, "in_common": name_key(name) in common,
                "paragraphs": 0, "groups": set(), "strings": 0, "kw_in": 0, "str_in": 0,
            }
        heads[addr.head_num]["paragraphs"] += 1
        heads[addr.head_num]["kw_in"] += para.keyword in common
    pos: Counter = Counter()
    for addr, entry in walk_entries(kb):
        row = heads[addr.head_num]
        row["strings"] += 1
        row["str_in"] += entry.text in common
        row["groups"].add(addr.group_prefix())
        pos[addr.pos] += 1
    for row in heads.values():
        row["groups"] = len(row["groups"])

    classes: dict[int, dict] = {}
    for row in heads.values():
        cls = classes.setdefault(row["class"], {
            "sections": set(), "heads": 0, "heads_in": 0, "paragraphs": 0,
            "groups": 0, "strings": 0, "kw_in": 0, "str_in": 0,
        })
        cls["sections"].add(row["section"])
        cls["heads"] += 1
        cls["heads_in"] += row["in_common"]
        for key in ("paragraphs", "groups", "strings", "kw_in", "str_in"):
            cls[key] += row[key]
    for cls in classes.values():
        cls["sections"] = len(cls["sections"])
    return heads, classes, pos


def reference_index(kb: ThesaurusKB) -> LexicalIndex:
    """The index built from ``walk_entries``' validated addresses, each
    posting list sorted by ``Address.sort_key``."""
    table: dict[str, list[Address]] = {}
    for address, entry in walk_entries(kb):
        table.setdefault(entry.text, []).append(address)
    return LexicalIndex({
        text: tuple(sorted(addresses, key=Address.sort_key))
        for text, addresses in table.items()
    })


def address_rule(
    class_num, section_num=None, head_num=None, pos=None, para_idx=None,
    sg_idx=None, entry_idx=None,
) -> Optional[str]:
    """The ``AddressError`` message the original ``Address`` raised for these
    components, or None where it accepted them. It let ``None`` through as a
    class and ``bool`` (an ``int`` subclass) as any number."""
    if (pos is None) != (para_idx is None):
        return "paragraph address needs both a part of speech and an index"
    chain = [
        ("class", class_num),
        ("section", section_num),
        ("head", head_num),
        ("paragraph", para_idx),
        ("group", sg_idx),
        ("entry", entry_idx),
    ]
    seen_gap = False
    for name, value in chain:
        if value is None:
            seen_gap = True
            continue
        if seen_gap:
            return f"{name} component set without its parent levels"
        minimum = 1 if name in ("class", "section", "head") else 0
        if not isinstance(value, int) or value < minimum:
            return f"bad {name} component {value!r}"
    return None


_NUMBER_END = 10**MAX_DIGITS


def reference_address_new(
    cls, class_num, section_num=None, head_num=None, pos=None, para_idx=None,
    sg_idx=None, entry_idx=None,
) -> Address:
    """``Address.__new__`` as it was, one loop over the components for
    every input, kept verbatim."""
    if (pos is None) != (para_idx is None):
        raise AddressError("paragraph address needs both a part of speech and an index")
    if pos is not None and type(pos) is not PartOfSpeech:
        raise AddressError(f"bad part of speech component {pos!r}")
    seen_gap = False
    for name, value, minimum in (
        ("class", class_num, 1), ("section", section_num, 1), ("head", head_num, 1),
        ("paragraph", para_idx, 0), ("group", sg_idx, 0), ("entry", entry_idx, 0),
    ):
        if value is None and name != "class":
            seen_gap = True
        elif seen_gap:
            raise AddressError(f"{name} component set without its parent levels")
        elif type(value) is not int or not minimum <= value < _NUMBER_END:
            # repr of an int past the limit raises ValueError, so it is not shown
            shown = (f"of more than {MAX_DIGITS} digits"
                     if isinstance(value, int) and abs(value) >= _NUMBER_END else repr(value))
            raise AddressError(f"bad {name} component {shown}")
    return tuple.__new__(
        cls, (class_num, section_num, head_num, pos, para_idx, sg_idx, entry_idx)
    )


def reference_head_address(self: ThesaurusKB, number: int) -> Optional[Address]:
    """``ThesaurusKB.head_address`` as it was, a walk of every head, kept
    verbatim."""
    for cls, sec, head in self.walk_heads():
        if head.number == number:
            return Address(cls.number, sec.number, head.number)
    return None


def reference_resolve(self: ThesaurusKB, address: Address) -> Node:
    """``ThesaurusKB.resolve`` as it was, a linear search per level, kept
    verbatim."""
    cls = next((c for c in self.classes if c.number == address.class_num), None)
    if cls is None:
        raise AddressError(f"class {address.class_num} not found")
    if address.section_num is None:
        return cls
    sec = next((s for s in cls.sections if s.number == address.section_num), None)
    if sec is None:
        raise AddressError(f"section {address.section_num} not found in class {cls.number}")
    if address.head_num is None:
        return sec
    head = next((h for h in sec.heads if h.number == address.head_num), None)
    if head is None:
        raise AddressError(
            f"head {address.head_num} not found in section {cls.number}.{sec.number}"
        )
    if address.pos is None:
        return head
    bucket = head.pos_paragraphs(address.pos)
    if address.para_idx >= len(bucket):
        raise AddressError(
            f"paragraph {address.pos.value}:{address.para_idx} not found in head {head.number}"
        )
    para = bucket[address.para_idx]
    if address.sg_idx is None:
        return para
    if address.sg_idx >= len(para.groups):
        raise AddressError(f"group {address.sg_idx} not found in {head.number}:{address.pos.value}:{address.para_idx}")
    group = para.groups[address.sg_idx]
    if address.entry_idx is None:
        return group
    if address.entry_idx >= len(group.entries):
        raise AddressError(f"entry {address.entry_idx} not found in group {address.group_prefix()}")
    return group.entries[address.entry_idx]


def reference_structured_document(bundle: KBBundle, *, strip_gloss: bool = False) -> str:
    """The structured export built as nested dicts and encoded whole by
    ``json.dumps(indent=2)``, as ``structured_document`` did before it
    streamed the document: full taxonomy, index statistics, and (when a
    resource is present) coverage rows. Key order is fixed. Every count,
    share and coverage figure comes from ``recount_tables`` and
    ``walk_entries``, none from the library's tables; a class with no heads
    gets a row of zeros."""
    kb = bundle.kb
    lemmas = bundle.resource.all_lemmas() if bundle.resource is not None else frozenset()
    texts = [entry.text for _, entry in walk_entries(kb)]
    common = frozenset(texts) & lemmas
    _, classes, pos_entries = recount_tables(kb, common, lemmas, strip_gloss=strip_gloss)

    taxonomy = [
        {
            "number": cls.number,
            "name": cls.name,
            "sections": [
                {
                    "number": sec.number,
                    "name": sec.name,
                    "heads": [
                        {
                            "number": head.number,
                            "name": head.name,
                            "paragraphs": [
                                {
                                    "pos": para.pos.value,
                                    "keyword": para.keyword,
                                    "semicolonGroups": [
                                        {
                                            "entries": [
                                                {
                                                    "text": entry.text,
                                                    "crossRefs": [
                                                        {"head": ref.head_num, "keyword": ref.keyword}
                                                        for ref in entry.cross_refs
                                                    ],
                                                }
                                                for entry in group.entries
                                            ]
                                        }
                                        for group in para.groups
                                    ],
                                }
                                for para in head.paragraphs
                            ],
                        }
                        for head in sec.heads
                    ],
                }
                for sec in cls.sections
            ],
        }
        for cls in kb.classes
    ]

    def row(class_num: Optional[int], c: dict) -> dict:
        return {
            "classNum": class_num,
            "sections": c["sections"],
            "heads": c["heads"],
            "paragraphs": c["paragraphs"],
            "semicolonGroups": c["groups"],
            "strings": c["strings"],
            "pctCommonHeads": c["heads_in"] / c["heads"] if c["heads"] else 0.0,
            "pctCommonKeywords": c["kw_in"] / c["paragraphs"] if c["paragraphs"] else 0.0,
            "pctCommonStrings": c["str_in"] / c["strings"] if c["strings"] else 0.0,
        }

    zero = dict.fromkeys(
        ("sections", "heads", "heads_in", "paragraphs", "groups", "strings", "kw_in", "str_in"), 0
    )
    rows = [row(cls.number, classes.get(cls.number, zero)) for cls in kb.classes]
    total = {key: sum(c[key] for c in classes.values()) for key in zero}

    coverage = None
    if bundle.resource is not None:
        coverage = {
            "keywordDenominator": "paragraphs",
            "commonStrings": len(common),
            "classes": rows,
            "total": row(None, total),
        }

    document = {
        "format": "rogetkb-structured",
        "version": _VERSION,
        "sourceChecksum": bundle.meta.source_checksum,
        "counts": {
            "classes": len(kb.classes),
            "sections": total["sections"],
            "heads": total["heads"],
            "paragraphs": total["paragraphs"],
            "semicolonGroups": total["groups"],
            "entries": len(texts),
        },
        "index": {
            "uniqueStrings": len(set(texts)),
            "totalOccurrences": len(texts),
        },
        "posDistribution": {
            pos.value: pos_entries[pos] / len(texts) if texts else 0.0 for pos in PartOfSpeech
        },
        "taxonomy": taxonomy,
        "coverage": coverage,
    }
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"


def reference_load_resource(text: str) -> SynsetResource:
    """Parse an interchange document. Raises :class:`LexiconError` on the
    first malformed record."""
    synsets: dict[str, Synset] = {}
    raw_edges: list[tuple[int, str, RelationType, str]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        kind, _, rest = line.partition(" ")
        if kind == "SYN":
            body, _, gloss = rest.partition("|")
            parts = body.split(None, 2)
            if len(parts) < 3:
                raise LexiconError(line_no, f"malformed SYN record {line!r}")
            syn_id, pos_tok, lemma_field = parts
            if syn_id in synsets:
                raise LexiconError(line_no, f"duplicate synset id {syn_id}")
            try:
                pos = PartOfSpeech(pos_tok.upper())
            except ValueError:
                raise LexiconError(line_no, f"unknown part of speech {pos_tok!r}") from None
            lemmas = tuple(dict.fromkeys(filter(None, map(normalize, lemma_field.split(";")))))
            if not lemmas:
                raise LexiconError(line_no, f"synset {syn_id} has no lemmas")
            gloss = gloss.strip()
            synsets[syn_id] = Synset(syn_id, pos, lemmas, gloss or None)
        elif kind == "REL":
            parts = rest.split()
            if len(parts) != 3:
                raise LexiconError(line_no, f"malformed REL record {line!r}")
            rel_tok, src, dst = parts
            try:
                rel = RelationType(rel_tok.lower())
            except ValueError:
                raise LexiconError(line_no, f"unknown relation type {rel_tok!r}") from None
            if rel is RelationType.HYPONYM:
                # canonical storage: the inverse hypernym edge
                rel, src, dst = RelationType.HYPERNYM, dst, src
            raw_edges.append((line_no, src, rel, dst))
        else:
            raise LexiconError(line_no, f"unknown record kind {kind!r}")

    edges = []
    for line_no, src, rel, dst in raw_edges:
        for endpoint in (src, dst):
            if endpoint not in synsets:
                raise LexiconError(line_no, f"unknown synset {endpoint}")
        edges.append((src, rel, dst))
    return SynsetResource(synsets=synsets, edges=tuple(edges))


def stats_rows(
    kb: ThesaurusKB, lemmas: Optional[frozenset[str]], *, strip_gloss: bool = False
) -> SimpleNamespace:
    """The rows of every ``stats`` table of ``kb`` against a lexicon with
    ``lemmas`` (None: no lexicon), each rebuilt from ``recount_tables`` and
    ``walk_entries``, none from the library's tables: ``report`` holds the
    class rows and the totals row, ``head_rows`` the sorted head rows and
    ``shares`` the part-of-speech shares."""
    texts = [entry.text for _, entry in walk_entries(kb)]
    common = frozenset(texts) & lemmas if lemmas is not None else frozenset()
    heads, classes, pos_entries = recount_tables(
        kb, common, lemmas or frozenset(), strip_gloss=strip_gloss
    )

    def pct(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    def class_row(class_num: Optional[int], c: dict) -> SimpleNamespace:
        return SimpleNamespace(
            class_num=class_num, sections=c["sections"], heads=c["heads"],
            paragraphs=c["paragraphs"], groups=c["groups"], strings=c["strings"],
            pct_common_heads=pct(c["heads_in"], c["heads"]),
            pct_common_keywords=pct(c["kw_in"], c["paragraphs"]),
            pct_common_strings=pct(c["str_in"], c["strings"]),
        )

    zero = dict.fromkeys(
        ("sections", "heads", "heads_in", "paragraphs", "groups", "strings", "kw_in", "str_in"), 0
    )
    report = SimpleNamespace(
        rows=tuple(class_row(cls.number, classes.get(cls.number, zero)) for cls in kb.classes),
        total=class_row(None, {key: sum(c[key] for c in classes.values()) for key in zero}),
    )
    head_rows = sorted(
        (
            SimpleNamespace(
                head_num=num, head_name=h["name"], head_name_in_lex=h["in_lex"],
                paragraphs=h["paragraphs"], groups=h["groups"], strings=h["strings"],
                pct_common_strings=pct(h["str_in"], h["strings"]),
                pct_common_keywords=pct(h["kw_in"], h["paragraphs"]),
            )
            for num, h in heads.items()
        ),
        key=lambda r: (-r.pct_common_strings, r.head_num),
    )
    shares = {pos: pct(pos_entries[pos], len(texts)) for pos in PartOfSpeech}
    return SimpleNamespace(lemmas=lemmas, report=report, head_rows=head_rows, shares=shares)


def reference_stats(rows: SimpleNamespace, mode: str, *, top: Optional[int] = None) -> str:
    """The standard output of ``stats MODE`` for the ``stats_rows`` in
    ``rows``, written by the ``stats`` formatting that built each line column
    by column, kept verbatim except that ``echo`` collects the lines."""
    lemmas, report, shares = rows.lemmas, rows.report, rows.shares
    lines: list[str] = []
    echo = lines.append
    # the `stats class` header as the formatting below knew it, spelled out
    COVERAGE_COLUMNS = ("classNum", "sections", "heads", "paragraphs", "semicolonGroups",
                        "strings", "pctCommonHeads", "pctCommonKeywords", "pctCommonStrings")

    if mode == "pos":
        echo("pos\tfraction")
        for pos in PartOfSpeech:
            echo(f"{pos.value}\t{shares[pos]:.4f}")
    elif mode == "class":
        echo("\t".join(COVERAGE_COLUMNS if lemmas is not None else COVERAGE_COLUMNS[:6]))
        for row in report.rows + (report.total,):
            label_cell = "total" if row.class_num is None else str(row.class_num)
            line = (f"{label_cell}\t{row.sections}\t{row.heads}\t{row.paragraphs}\t"
                    f"{row.groups}\t{row.strings}")
            if lemmas is not None:
                line += (f"\t{row.pct_common_heads:.2f}\t{row.pct_common_keywords:.2f}"
                         f"\t{row.pct_common_strings:.2f}")
            echo(line)
    else:
        echo("headNum\theadName" + ("\theadNameInLex" if lemmas is not None else "")
             + "\tparagraphs\tsemicolonGroups\tstrings"
             + ("\tpctCommonStrings\tpctCommonKeywords" if lemmas is not None else ""))
        for row in rows.head_rows[:top]:
            line = f"{row.head_num}\t{row.head_name}"
            if lemmas is not None:
                line += "\tyes" if row.head_name_in_lex else "\tno"
            line += f"\t{row.paragraphs}\t{row.groups}\t{row.strings}"
            if lemmas is not None:
                line += f"\t{row.pct_common_strings:.2f}\t{row.pct_common_keywords:.2f}"
            echo(line)
    return "".join(line + "\n" for line in lines)


def _label_name(label: Optional[RelationType]) -> str:
    return "No label" if label is None else label.value.capitalize()


def reference_render_labelled(
    result: LabelledParagraph, pos: PartOfSpeech, show_evidence: bool
) -> list[str]:
    """``render_labelled`` as it was, one pass over the groups per label,
    kept verbatim."""
    lines = [f"{pos.display} {result.keyword}"]
    for label in list(LABEL_PRECEDENCE) + [None]:
        rendered = []
        for sg_idx, item in enumerate(result.labelled):
            if item.label is not label:
                continue
            entries = item.group.entries[1:] if sg_idx == 0 else item.group.entries
            text = ", ".join(entry.render() for entry in entries)
            if text:
                rendered.append(text)
        if rendered:
            lines.append(f"{_label_name(label)}: " + "; ".join(rendered))
    if show_evidence:
        for sg_idx, item in enumerate(result.labelled):
            if item.evidence:
                triples = " ".join(
                    f"{ev.string}->{ev.synset_id}({ev.relation.value})" for ev in item.evidence
                )
                lines.append(f"evidence: sg={sg_idx} {triples}")
    return lines


_POS_RANK = {pos: rank for rank, pos in enumerate(PartOfSpeech)}


def reference_sort_key(self: Address) -> tuple:
    """``Address.sort_key`` as it was, one expression per component, kept
    verbatim."""
    def num(value: Optional[int]) -> int:
        return -1 if value is None else value

    pos_rank = -1 if self.pos is None else _POS_RANK[self.pos]
    return (
        self.class_num, num(self.section_num), num(self.head_num),
        pos_rank, num(self.para_idx), num(self.sg_idx), num(self.entry_idx),
    )


def reference_address_str(self: Address) -> str:
    """``Address.__str__`` as it was, one branch per depth, kept verbatim."""
    class_num, section, head, pos, para, group, entry = self
    if entry is not None:
        return f"{class_num}.{section}.{head}:{pos.value}:{para}:{group}:{entry}"
    if group is not None:
        return f"{class_num}.{section}.{head}:{pos.value}:{para}:{group}"
    if pos is not None:
        return f"{class_num}.{section}.{head}:{pos.value}:{para}"
    if head is not None:
        return f"{class_num}.{section}.{head}"
    if section is not None:
        return f"{class_num}.{section}"
    return f"{class_num}"


# -- the general parser ---------------------------------------------------------
# ``parse_source`` and its helpers, kept verbatim from the commit that added
# the canonical builder, but for the name and the collector pause (which
# changes no result): the builder, and any later change to the general
# parser, is checked against a parser that shares no code with either.


def _number(text: str) -> int:
    """``text`` read as a decimal number, or 0 (which no construct accepts)
    when it is not one of at most :data:`MAX_DIGITS` (4,300) digits: Python's
    default limit on int-string conversion, past which int() raises where it
    is enforced."""
    return int(text) if text.isdecimal() and len(text) <= MAX_DIGITS else 0


def parse_cross_ref(token: str) -> Optional[CrossReference]:
    """Read one ``@<headnum> <keyword>`` annotation; None when the token is
    not a cross-reference. Raises ValueError for ``@`` with a bad number."""
    token = token.strip()
    if not token.startswith("@"):
        return None
    body = token[1:].strip()
    num_part, _, keyword = body.partition(" ")
    head_num = _number(num_part)
    if head_num < 1:
        raise ValueError(f"bad cross-reference head number {num_part!r}")
    keyword = normalize(keyword)
    if not keyword:
        raise ValueError("cross-reference is missing its keyword")
    return CrossReference(head_num, keyword)


# Depths of the open constructs. A directive opens one a level below its
# parent, closing whatever was open at its own depth or deeper.
_CLASS, _SECTION, _HEAD, _PARA = range(4)
_DIRECTIVES = {"#CLASS": _CLASS, "#SECTION": _SECTION, "#HEAD": _HEAD, "#PARA": _PARA}
_LEVELS = ("class", "section", "head", "paragraph")
_NODES = (RogetClass, Section, Head, Paragraph)
_CHILDREN = ("sections", "heads", "paragraphs")


class _Open(NamedTuple):
    """A construct whose closing line is still to come: the fields of its
    node other than the children, the line of its directive, and the
    children finished so far."""

    fields: tuple
    line: int
    children: list


class _Builder:
    """Accumulates the tree while the line loop below drives it."""

    def __init__(self) -> None:
        self.diagnostics: list[ParseDiagnostic] = []
        self.classes: list[RogetClass] = []
        self.open: list[_Open] = []  # outermost first, so the index is the depth
        self.entries: list[Entry] = []  # current, unterminated group
        self.last_class_num = 0
        self.last_head_num = 0
        self.declared_heads: set[int] = set()
        self.ref_sites: list[tuple[int, int]] = []  # (line, referenced head)

    def error(self, line: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(line, "error", message))

    def warn(self, line: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(line, "warning", message))

    def flush_group(self, line: int, *, implicit: bool) -> None:
        if self.entries:
            if implicit:
                self.warn(line, "semicolon group not terminated by ';'")
            self.open[-1].children.append(SemicolonGroup(tuple(self.entries)))
            self.entries = []

    def close(self, depth: int, line: int) -> None:
        """Close every construct open at ``depth`` or deeper, innermost
        first, keeping each one that has children. An empty class or section
        is reported at ``line``, an empty head or paragraph at its own."""
        self.flush_group(line, implicit=True)
        while len(self.open) > depth:
            node = self.open.pop()
            level = len(self.open)
            if node.children:
                parent = self.open[-1].children if self.open else self.classes
                parent.append(_NODES[level](*node.fields, tuple(node.children)))
            elif level == _PARA:
                self.error(node.line, "paragraph has no semicolon groups")
            else:
                where = node.line if level == _HEAD else line
                self.error(where, f"{_LEVELS[level]} {node.fields[0]} has no {_CHILDREN[level]}")

    def begin(self, depth: int, rest: str, line: int) -> None:
        """Open the construct a directive at ``depth`` begins, unless its
        payload or its number is rejected. Classes and heads ascend across
        the file, past the last one opened; sections ascend within their
        class from 1, past the last one kept."""
        if depth == _PARA:
            try:
                self.open.append(_Open((PartOfSpeech.parse(rest),), line, []))
            except ValueError as exc:
                self.error(line, str(exc))
            return
        if depth == _CLASS:
            floor = self.last_class_num
        elif depth == _SECTION:
            kept = self.open[-1].children
            floor = kept[-1].number if kept else 0
        else:
            floor = self.last_head_num
        num_part, _, name = rest.partition(" ")
        name = " ".join(name.split())
        number = _number(num_part)
        if number < 1:
            self.error(line, f"{_LEVELS[depth]} number {num_part!r} is not a positive integer")
        elif not name:
            self.error(line, f"{_LEVELS[depth]} has no name")
        elif depth == _CLASS and number > 8:
            self.error(line, f"class number {number} outside 1..8")
        elif number <= floor:
            self.error(line, f"{_LEVELS[depth]} number {number} not ascending")
        else:
            self.open.append(_Open((number, name), line, []))
            if depth == _CLASS:
                self.last_class_num = number
            elif depth == _HEAD:
                self.last_head_num = number
                self.declared_heads.add(number)


def _feed_entry_line(text: str, line: int, builder: _Builder) -> None:
    if len(builder.open) <= _PARA:
        builder.error(line, "semicolon group outside paragraph")
        return
    segments = text.split(";")
    for i, segment in enumerate(segments):
        closes = i < len(segments) - 1
        segment = segment.strip()
        if segment:
            for token in segment.split(","):
                # the entry text runs up to the first "@"; each "@" starts one
                # ref reaching to the next "@" or the token's end
                raw_text, at, ref_text = token.partition("@")
                entry_text = normalize(raw_text)
                refs: list[CrossReference] = []
                bad = False
                for part in ref_text.split("@") if at else ():
                    if not part.strip():
                        continue
                    try:
                        ref = parse_cross_ref("@" + part)
                    except ValueError as exc:
                        builder.error(line, str(exc))
                        bad = True
                        continue
                    refs.append(ref)
                    builder.ref_sites.append((line, ref.head_num))
                if entry_text:
                    if not builder.entries and entry_text.startswith(("#", "//")):
                        builder.error(line, f"semicolon group cannot start with {entry_text!r}")
                    builder.entries.append(Entry(entry_text, tuple(refs)))
                elif refs:
                    if builder.entries:
                        prev = builder.entries[-1]
                        builder.entries[-1] = Entry(prev.text, prev.cross_refs + tuple(refs))
                    else:
                        builder.error(line, "cross-reference with no entry to attach to")
                elif not bad:
                    builder.warn(line, "empty entry skipped")
        if closes:
            if builder.entries:
                builder.flush_group(line, implicit=False)
            else:
                builder.warn(line, "empty semicolon group skipped")


def reference_parse_source(text: str) -> ParseResult:
    """Parse a whole source document. Never raises on bad input; every
    problem becomes a diagnostic and ``kb`` is None when any is an error."""
    builder = _Builder()

    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if not line.startswith("#"):
            _feed_entry_line(line, line_no, builder)
            continue
        directive, _, rest = line.partition(" ")
        depth = _DIRECTIVES.get(directive)
        if depth is None:
            builder.error(line_no, f"unknown directive {directive!r}")
        elif len(builder.open) < depth:
            builder.error(line_no, f"{_LEVELS[depth]} outside {_LEVELS[depth - 1]}")
        else:
            builder.close(depth, line_no)
            builder.begin(depth, rest.strip(), line_no)

    # the line after a final line break counts, as it does in an editor;
    # lines break where splitlines breaks them, "\r" and "\r\n" included
    ends_with_break = text[-1:].splitlines() == [""]
    last_line = max(1, len(lines) + ends_with_break)
    builder.close(_CLASS, last_line)

    # dangling cross-references are warnings: fixtures are sparse subsets of
    # the full head space by design
    for line_no, head_num in builder.ref_sites:
        if head_num not in builder.declared_heads:
            builder.warn(line_no, f"cross-reference to unknown head {head_num}")

    diagnostics = tuple(builder.diagnostics)
    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, diagnostics)
    return ParseResult(ThesaurusKB(tuple(builder.classes)), diagnostics)
