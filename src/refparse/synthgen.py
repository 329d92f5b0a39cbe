"""Render structured bibliographic records through style templates into
reference strings with exact field character spans.

A style file is a set of ``key: value`` lines plus a ``format:`` template.
The template mini-language has three constructs:

* ``<field>`` - a slot, rendered from the record and recorded as a span;
* ``[ ... ]`` - a group, emitted only when every slot directly inside it has
  a value and, if it holds no slot but holds groups, at least one of those
  is emitted (groups may nest one level);
* everything else is literal text, never covered by a span. ``\\<`` ``\\[``
  etc. escape the special characters.

Slot names: author, title, date, container, journal, booktitle and pages,
plus editor, volume, issue, publisher, location, institution, note and web,
which render one record value as it is. The ``container`` slot labels its
span journal or booktitle depending on the record's container kind;
``journal``/``booktitle`` render only for records of the matching kind.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, fields
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, observed_labels, seeded_rng, text_lines
from .errors import DataError, TemplateError, UsageError, shown
from .labels import LabeledReference
from .tokenizer import tags_from_spans, tokenize


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BibRecord:
    """Structured bibliographic metadata, the renderer's input."""

    authors: tuple[tuple[str, str], ...]  # (given, family)
    title: str
    year: int
    container: str = ""
    container_kind: str = "journal"  # "journal" | "proceedings"
    volume: str | None = None
    issue: str | None = None
    pages: tuple[str, str] | None = None
    publisher: str | None = None
    editors: str | None = None
    location: str | None = None
    institution: str | None = None
    note: str | None = None
    url: str | None = None

    def __post_init__(self) -> None:
        if not self.title:
            raise UsageError("record title must be non-empty")
        if not 1500 <= self.year <= 2100:
            raise UsageError(f"record year {shown(self.year)} outside [1500, 2100]")
        if self.container_kind not in ("journal", "proceedings"):
            raise UsageError(f"unknown container kind {self.container_kind!r}")
        if self.pages is not None:
            first, last = self.pages
            if not first or not last:
                raise UsageError("page numbers must be non-empty")
            if first.isdigit() and last.isdigit() and int(first) > int(last):
                raise UsageError(f"page range {first}-{last} is reversed")


def record_to_dict(record: BibRecord) -> dict:
    return {k: v for k, v in asdict(record).items() if v is not None}


# record keys whose values are text: JSON strings, or null where optional
_TEXT_KEYS = ("title", "container", "container_kind")
_OPTIONAL_TEXT_KEYS = (
    "volume", "issue", "publisher", "editors", "location", "institution", "note", "url"
)
_RECORD_FIELDS = frozenset(f.name for f in fields(BibRecord))


def _check_text(key: str, value) -> None:
    if not isinstance(value, str):
        raise DataError(f"record {key!r} must be a JSON string, got {json.dumps(value)}")


def _author(value) -> tuple[str, str]:
    pair = value
    if isinstance(value, dict):
        pair = [value.get("given", ""), value.get("family", "")]
    if not (isinstance(pair, list) and len(pair) == 2):
        raise DataError(
            "record 'authors' must hold [given, family] pairs or {given, family} "
            f"objects, got {json.dumps(value)}"
        )
    for name in pair:
        _check_text("authors", name)
    return pair[0], pair[1]


def _pages(value) -> tuple[str, str]:
    pair = isinstance(value, list) and len(value) == 2
    if not (pair and all(type(p) in (str, int) for p in value)):
        raise DataError(f"record 'pages' must be a [first, last] pair, got {json.dumps(value)}")
    return str(value[0]), str(value[1])


def record_from_dict(data: dict) -> BibRecord:
    """A record from its JSON object, passing on the keys that are BibRecord
    fields; a text value that is not a string, a year that is a number with
    a fraction, or an author or page range of another shape, is a DataError."""
    for key, value in data.items():
        if key in _TEXT_KEYS or (key in _OPTIONAL_TEXT_KEYS and value is not None):
            _check_text(key, value)
    values = {key: value for key, value in data.items() if key in _RECORD_FIELDS}
    authors = data.get("authors", [])
    if not isinstance(authors, list):
        raise DataError(f"record 'authors' must be a JSON list, got {json.dumps(authors)}")
    values["authors"] = tuple(_author(a) for a in authors)
    year = data["year"]
    if isinstance(year, float) and not year.is_integer():
        raise DataError(f"record 'year' must be an integer, got {json.dumps(year)}")
    values["year"] = int(year)
    if values.get("pages") is not None:
        values["pages"] = _pages(values["pages"])
    return BibRecord(**values)


def read_records(path) -> list[BibRecord]:
    """JSON-lines, one record per line; a malformed line is a DataError."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                if line.strip():
                    records.append(record_from_dict(json.loads(line)))
            except (DataError, UsageError) as exc:
                raise DataError(f"bad record: {exc}", lineno) from None
            except (AttributeError, LookupError, TypeError, ValueError) as exc:
                raise DataError(f"bad record: {type(exc).__name__}: {exc}", lineno) from None
    return records


def write_records(records: Iterable[BibRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    text: str


@dataclass(frozen=True)
class Slot:
    field: str


@dataclass(frozen=True)
class Group:
    elements: tuple


# slot -> the record attribute it renders as it is, labelled with the slot's name
_VALUE_SLOTS = {
    "editor": "editors", "volume": "volume", "issue": "issue", "publisher": "publisher",
    "location": "location", "institution": "institution", "note": "note", "web": "url",
}

SLOT_NAMES = frozenset(
    ("author", "title", "date", "container", "journal", "booktitle", "pages", *_VALUE_SLOTS)
)


@dataclass(frozen=True)
class StyleTemplate:
    name: str
    elements: tuple
    family: str = ""
    name_order: str = "family-first"  # or "given-first"
    initials: str = "dotted"  # "dotted" | "plain" | "no"
    author_sep: str = ", "
    author_final: str = " and "
    et_al_min: int = 0  # 0 = never truncate
    et_al_marker: str = "et al."
    date_style: str = "plain"  # or "parenthesized"
    title_case: str = "none"  # or "sentence"
    pages_sep: str = "-"


# a format-string token: an escaped character, literal text (a lone final
# backslash too), a slot (its ">" missing when unterminated) or a bracket
_TOKEN = re.compile(
    r"\\(?P<escaped>.)|(?P<text>[^\\<\[\]]+|\\\Z)"
    r"|<(?P<slot>[^>]*)(?P<close>>?)|(?P<bracket>[\[\]])",
    re.DOTALL,
)


def parse_template(fmt: str, source: str = "<template>") -> tuple:
    """Parse a format string into template elements."""
    stack: list[list] = [[]]
    for m in _TOKEN.finditer(fmt):
        slot, bracket = m.group("slot", "bracket")
        if slot is not None:
            if not m.group("close"):
                raise TemplateError(f"{source}: unterminated slot at column {m.start()}")
            if slot not in SLOT_NAMES:
                raise TemplateError(f"{source}: unknown slot <{slot}>")
            stack[-1].append(Slot(slot))
        elif bracket == "[":
            if len(stack) > 2:
                raise TemplateError(f"{source}: groups nest at most two deep")
            stack.append([])
        elif bracket == "]":
            if len(stack) == 1:
                raise TemplateError(f"{source}: unbalanced ']'")
            group = Group(tuple(stack.pop()))
            stack[-1].append(group)
        else:
            text = m.group("escaped") or m.group("text")
            if stack[-1] and isinstance(stack[-1][-1], Literal):  # merge adjacent text
                text = stack[-1].pop().text + text
            stack[-1].append(Literal(text))
    if len(stack) != 1:
        raise TemplateError(f"{source}: unclosed '['")
    return tuple(stack[0])


# style-file key -> StyleTemplate field
_STYLE_KEYS = {
    "format" if f.name == "elements" else f.name.replace("_", "-"): f.name
    for f in fields(StyleTemplate)
}

_CHOICES = {
    "name-order": ("family-first", "given-first", "family-bare"),
    "date-style": ("plain", "parenthesized"),
    "title-case": ("none", "sentence"),
    "initials": ("dotted", "plain", "no", "yes"),
}


def parse_style_text(text: str, source: str = "<style>") -> StyleTemplate:
    values: dict = {}
    for lineno, line in enumerate(text_lines(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ":" not in stripped:
            raise TemplateError(f"{source}: expected 'key: value'", lineno)
        key, _, value = stripped.partition(":")
        key = key.strip()
        if key not in _STYLE_KEYS:
            raise TemplateError(f"{source}: unknown key {key!r}", lineno)
        value = value.strip()
        if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
            value = value[1:-1]
        values[key] = value
    for required in ("name", "format"):
        if required not in values:
            raise TemplateError(f"{source}: missing required key {required!r}")
    for key, allowed in _CHOICES.items():
        if key in values and values[key] not in allowed:
            raise TemplateError(
                f"{source}: {key} must be one of {allowed}, got {values[key]!r}"
            )
    if values.get("initials") == "yes":
        values["initials"] = "dotted"
    if "et-al-min" in values:
        try:
            values["et-al-min"] = int(values["et-al-min"])
        except ValueError:
            raise TemplateError(f"{source}: et-al-min must be an integer") from None
        if values["et-al-min"] < 0:
            raise TemplateError(f"{source}: et-al-min must be >= 0, got {values['et-al-min']}")
    values["format"] = parse_template(values["format"], source=source)
    return StyleTemplate(**{_STYLE_KEYS[key]: value for key, value in values.items()})


def read_style(path) -> StyleTemplate:
    return parse_style_text(path.read_text(encoding="utf-8"), source=str(path))


def builtin_styles() -> list[StyleTemplate]:
    """The styles shipped with the package, ordered by file name.

    They are partitioned into two disjoint families "A" (author-date
    flavored) and "B" (numeric/initials-first flavored) for out-of-sample
    experiments.
    """
    entries = sorted((resources.files("refparse") / "styles").iterdir(), key=lambda e: e.name)
    return [read_style(entry) for entry in entries if entry.name.endswith(".style")]


def style_family(family: str) -> list[StyleTemplate]:
    chosen = [s for s in builtin_styles() if s.family == family]
    if not chosen:
        raise UsageError(f"no builtin styles in family {family!r}")
    return chosen


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _format_name(given: str, family: str, template: StyleTemplate) -> str:
    if template.initials == "no":
        first = given
    else:
        dot = "." if template.initials == "dotted" else ""
        first = " ".join(p[0] + dot for p in given.split() if p)
    if not first:
        return family
    if template.name_order == "given-first":
        return f"{first} {family}"
    if template.name_order == "family-bare":
        return f"{family} {first}"
    return f"{family}, {first}"


def format_authors_spans(
    authors: Sequence[tuple[str, str]], template: StyleTemplate
) -> tuple[str, list[tuple[int, int]]]:
    """Formatted author list plus the char range of each rendered name."""
    if not authors:
        raise UsageError("cannot format an empty author list")
    names = [_format_name(g, f, template) for g, f in authors]
    truncated = 0 < template.et_al_min < len(names)
    if truncated:
        names = names[: template.et_al_min]
    text = ""
    spans: list[tuple[int, int]] = []
    for i, name in enumerate(names):
        if i > 0:
            last = i == len(names) - 1
            text += template.author_final if last and not truncated else template.author_sep
        spans.append((len(text), len(text) + len(name)))
        text += name
    if truncated:
        text += " " + template.et_al_marker
    return text, spans


def format_authors(authors: Sequence[tuple[str, str]], template: StyleTemplate) -> str:
    """Apply the template's name order, initials, delimiters, final
    conjunction, and et-al truncation."""
    return format_authors_spans(authors, template)[0]


def sentence_case(text: str) -> str:
    return text[:1].upper() + text[1:].lower()


def _slot_parts(
    record: BibRecord, slot: Slot, template: StyleTemplate, per_author: bool
) -> tuple[str, list[tuple[str, int, int]]] | None:
    """Rendered text and relative spans for one slot; None when absent."""
    f = slot.field
    if f == "author":
        if not record.authors:
            return None
        text, name_spans = format_authors_spans(record.authors, template)
        if per_author:
            return text, [("author", s, e) for s, e in name_spans]
        return text, [("author", 0, len(text))]
    if f == "title":
        text = record.title if template.title_case == "none" else sentence_case(record.title)
        return text, [("title", 0, len(text))]
    if f == "date":
        year = str(record.year)
        if template.date_style == "parenthesized":
            return f"({year})", [("date", 1, 1 + len(year))]
        return year, [("date", 0, len(year))]
    if f in ("container", "journal", "booktitle"):
        if not record.container:
            return None
        label = "journal" if record.container_kind == "journal" else "booktitle"
        if f != "container" and f != label:
            return None
        return record.container, [(label, 0, len(record.container))]
    if f == "pages":
        if record.pages is None:
            return None
        text = record.pages[0] + template.pages_sep + record.pages[1]
        return text, [("pages", 0, len(text))]
    value = getattr(record, _VALUE_SLOTS[f])
    if not value:
        return None
    return value, [(f, 0, len(value))]


@dataclass(frozen=True)
class RenderedReference:
    text: str
    spans: tuple[tuple[str, int, int], ...]  # (field label, start, end)


def _render_elements(
    elements: tuple,
    record: BibRecord,
    template: StyleTemplate,
    per_author: bool,
    top: bool,
) -> tuple[str, list[tuple[str, int, int]]] | None:
    """Text and spans of `elements`; None for a group that does not render."""
    text = ""
    spans: list[tuple[str, int, int]] = []
    has_groups = rendered = False
    for el in elements:
        if isinstance(el, Literal):
            part = el.text, ()
        elif isinstance(el, Slot):
            part = _slot_parts(record, el, template, per_author)
            if part is None:
                if top:
                    raise TemplateError(
                        f"style {template.name!r}: record has no value for "
                        f"<{el.field}> outside any group"
                    )
                return None
            rendered = True
        else:
            has_groups = True
            part = _render_elements(el.elements, record, template, per_author, top=False)
            if part is None:
                continue
            rendered = True
        part_text, part_spans = part
        for lbl, s, e in part_spans:  # a loop: extend() with a generator costs more per part
            spans.append((lbl, len(text) + s, len(text) + e))
        text += part_text
    if has_groups and not rendered and not top:
        return None
    return text, spans


def render(
    record: BibRecord, template: StyleTemplate, per_author: bool = False
) -> RenderedReference:
    """Deterministically render one record through one style."""
    text, spans = _render_elements(template.elements, record, template, per_author, top=True)
    return RenderedReference(text=text, spans=tuple(spans))


# ---------------------------------------------------------------------------
# corpus generation
# ---------------------------------------------------------------------------

def generate_corpus(
    records: Sequence[BibRecord],
    templates: Sequence[StyleTemplate],
    n: int,
    seed: int,
    per_author: bool = False,
    name: str = "synthetic",
) -> Corpus:
    """Sample n distinct (record, template) pairs, render, and label.

    Sampling is uniform without replacement over the record x template
    product, so asking for more instances than the product holds is an error.
    """
    if n < 1:
        raise UsageError(f"corpus size must be >= 1, got {shown(n)}")
    if not records or not templates:
        raise UsageError("need at least one record and one template")
    product = len(records) * len(templates)
    if n > product:
        raise UsageError(
            f"{n} instances requested but only {product} distinct "
            f"(record, template) pairs exist"
        )
    rng = seeded_rng(seed)
    chosen = rng.choice(product, size=n, replace=False)
    instances = []
    for pair in chosen:
        record = records[int(pair) // len(templates)]
        template = templates[int(pair) % len(templates)]
        rendered = render(record, template, per_author=per_author)
        tokens = tokenize(rendered.text)
        tags = tags_from_spans(tokens, rendered.spans)
        instances.append(LabeledReference(raw=rendered.text, tokens=tokens, tags=tags))
    return Corpus(
        name=name, labels=observed_labels(instances), instances=tuple(instances)
    )


# ---------------------------------------------------------------------------
# deterministic record synthesis (desk-scale stand-in for a real catalog)
# ---------------------------------------------------------------------------

_GIVEN = (
    "James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael",
    "Linda", "David", "Elizabeth", "William", "Barbara", "Richard", "Susan",
    "Joseph", "Jessica", "Thomas", "Sarah", "Charles", "Karen", "Daniel",
    "Nancy", "Matthew", "Lisa", "Anthony", "Margaret", "Mark", "Sandra",
    "Steven", "Ashley", "Andrew", "Kimberly", "Joshua", "Emily", "Kenneth",
    "Donna", "Kevin", "Michelle", "Brian", "Carol", "Jose", "Renee",
    "Jurgen", "Zoe", "Marcin", "Bogdan", "Christiane", "Joeran",
)

_FAMILY = (
    "Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller",
    "Davis", "Rodriguez", "Martinez", "Wilson", "Anderson", "Taylor",
    "Moore", "Jackson", "Martin", "Lee", "Perez", "Thompson", "White",
    "Harris", "Sanchez", "Clark", "Ramirez", "Lewis", "Robinson", "Walker",
    "Young", "Allen", "King", "Wright", "Scott", "Torres", "Nguyen", "Hill",
    "Flores", "Green", "Adams", "Nelson", "Baker", "Hall", "Rivera",
    "Campbell", "Mitchell", "Carter", "Roberts", "Mueller", "Novak",
    "Lemke", "Budka", "Gabrys", "Kowalski",
)

_ADJ = (
    "adaptive", "bayesian", "deep", "distributed", "efficient", "fast",
    "generalized", "hybrid", "incremental", "latent", "modular", "neural",
    "online", "parallel", "probabilistic", "robust", "scalable", "sparse",
    "statistical", "temporal", "hierarchical", "unsupervised",
)

_NOUN = (
    "inference", "optimization", "networks", "systems", "learning", "models",
    "estimation", "retrieval", "classification", "segmentation", "parsing",
    "clustering", "regression", "alignment", "prediction", "recognition",
    "analysis", "search", "ranking", "filtering", "annotation", "matching",
)

_JOURNAL_SHAPES = (
    "Journal of {A} {B}",
    "International Journal of {A} {B}",
    "{A} {B} Letters",
    "Transactions on {A} {B}",
    "Annals of {A} {B}",
    "{A} {B} Review",
    "Foundations of {A} {B}",
)

_PROC_SHAPES = (
    "Proceedings of the International Conference on {A} {B}",
    "Proceedings of the Symposium on {A} {B}",
    "Workshop on {A} {B}",
    "Proceedings of the Annual Meeting on {A} {B}",
)

_PUBLISHERS = (
    "Springer", "Elsevier", "Wiley", "MIT Press", "Cambridge University Press",
    "Oxford University Press", "ACM Press", "IEEE Press", "Academic Press",
    "North-Holland", "CRC Press", "Morgan Kaufmann",
)

_LOCATIONS = (
    "New York", "London", "Berlin", "Paris", "Boston", "Chicago", "Amsterdam",
    "Tokyo", "Vienna", "Dublin", "Geneva", "Madrid", "Sydney", "Toronto",
    "Cambridge, MA", "Princeton, NJ", "Los Alamos, NM", "Menlo Park, CA",
    "Oxford, UK", "Heidelberg, Germany",
)

_INSTITUTIONS = (
    "Stanford University", "University of Cambridge", "ETH Zurich",
    "Carnegie Mellon University", "University of Toronto",
    "Max Planck Institute", "Trinity College Dublin",
    "University of Edinburgh", "Technical University of Munich",
    "National Research Council", "University of California, Berkeley",
    "State University of New York, Buffalo", "Institute for Advanced Study",
    "Royal Institute of Technology", "Chinese Academy of Sciences",
)

_NOTES = (
    "in press", "to appear", "preprint", "second edition",
    "extended abstract", "technical report", "accepted manuscript",
)

_TITLE_SHAPES = (
    "{Adj} {noun} for {adj} {noun}",
    "A {adj} approach to {adj} {noun}",
    "On the {noun} of {adj} {noun}",
    "{Adj} {noun} with {adj} {noun}",
    "Towards {adj} {noun} in {adj} {noun}",
    "{Adj} and {adj} {noun}: a case study in {noun}",
    "Learning {adj} {noun} from {adj} {noun}",
    "{Adj} {noun}: a survey of trends and technologies",
    "Ten years of {adj} {noun}: 2005-2015",
    "{Adj} {noun} revisited, part 2",
)


def random_records(n: int, seed: int) -> list[BibRecord]:
    """Deterministic pseudo-random records built from small word pools.

    A stand-in for a real structured catalog; used by tests and CLI demos.
    """
    if n < 1:
        raise UsageError(f"record count must be >= 1, got {shown(n)}")
    rng = seeded_rng(seed)

    def pick(pool: Sequence[str]) -> str:
        return pool[int(rng.integers(len(pool)))]

    def maybe(p: float) -> bool:
        return bool(rng.random() < p)

    records = []
    for _ in range(n):
        n_authors = int(rng.choice([1, 2, 3, 4, 5, 6], p=[0.2, 0.3, 0.2, 0.15, 0.1, 0.05]))
        authors = tuple((pick(_GIVEN), pick(_FAMILY)) for _ in range(n_authors))
        title = _fill_shape(pick(_TITLE_SHAPES), rng)
        kind = "journal" if maybe(0.6) else "proceedings"
        container_shape = pick(_JOURNAL_SHAPES if kind == "journal" else _PROC_SHAPES)
        container = container_shape.format(
            A=pick(_ADJ).capitalize(), B=pick(_NOUN).capitalize()
        )
        year = int(rng.integers(1980, 2025))
        volume = str(int(rng.integers(1, 121))) if maybe(0.85 if kind == "journal" else 0.2) else None
        issue = str(int(rng.integers(1, 13))) if kind == "journal" and maybe(0.6) else None
        pages = None
        if maybe(0.8):
            first = int(rng.integers(1, 951))
            pages = (str(first), str(first + int(rng.integers(5, 41))))
        publisher = pick(_PUBLISHERS) if maybe(0.7 if kind == "proceedings" else 0.15) else None
        location = pick(_LOCATIONS) if maybe(0.45 if kind == "proceedings" else 0.08) else None
        editors = None
        if kind == "proceedings" and maybe(0.3):
            editors = f"{pick(_GIVEN)[0]}. {pick(_FAMILY)}"
            if maybe(0.5):
                editors += f" and {pick(_GIVEN)[0]}. {pick(_FAMILY)}"
        institution = pick(_INSTITUTIONS) if maybe(0.25) else None
        note = pick(_NOTES) if maybe(0.2) else None
        url = None
        if maybe(0.25):
            url = f"https://doi.org/10.{int(rng.integers(1000, 10000))}/{pick(_NOUN)}.{year}.{int(rng.integers(100, 1000))}"
        records.append(
            BibRecord(
                authors=authors,
                title=title,
                year=year,
                container=container,
                container_kind=kind,
                volume=volume,
                issue=issue,
                pages=pages,
                publisher=publisher,
                editors=editors,
                location=location,
                institution=institution,
                note=note,
                url=url,
            )
        )
    return records


def _fill_shape(shape: str, rng: np.random.Generator) -> str:
    """Fill every {...} place-holder in a title shape with a fresh word."""

    def word(m: re.Match) -> str:
        kind = m.group(1)
        pool = _ADJ if kind.lower() == "adj" else _NOUN
        w = pool[int(rng.integers(len(pool)))]
        return w.capitalize() if kind[0].isupper() else w

    return re.sub(r"\{(\w+)\}", word, shape)
