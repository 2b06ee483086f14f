"""One request contract for ``/search``, ``/msearch`` and ``/autocomplete``.

A request is parsed once, from GET query lists or one ``/msearch`` JSON
object, and validated once, when it is constructed, before any scoring
work (the reference validates in ``search.go:56-63`` and
``app/validator/validator.go``).  The HTTP server, the replica grid and
the engine all pass the frozen request, and it is the engine's cache key.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from numbers import Integral

from ..index.reader import IndexReader

MEDIA_TYPES = ("audio", "video", "text", "application", "image")
DERIVED_COLUMNS = ("claimId", "thumbnail_url", "channel", "title", "duration")
RESOLVE_COLUMNS = [
    "channel", "channel_claim_id", "title", "thumbnail_url", "release_time",
    "fee", "nsfw", "duration",
]
# the doc-metadata columns of a FORMAT_VERSION 6 index, which sort_by may
# name; a hit may also project the derived claim fields
DOC_COLUMNS = (*IndexReader._META_COLS, "ordinal")
HIT_COLUMNS = (*DOC_COLUMNS, *DERIVED_COLUMNS)

# accepted spellings of a field, the first present one wins (search.go:26-49)
ALIASES = {
    "from_": ("from",),
    "channel_id": ("channel_id", "channelID", "channelId"),
    "related_to": ("related_to", "relatedTo"),
    "sort_by": ("sort_by", "sortBy"),
    "content_type": ("contentType", "content_type"),
    "media_type": ("mediaType", "media_type"),
    "claim_type": ("claimType", "claim_type"),
    "free_only": ("free_only", "freeOnly"),
    "claim_id": ("claim_id", "claimID", "claimId"),
}
TRUE_VALUES = ("1", "true", "yes", "on", "")  # a bare ``?nsfw`` is true


class SearchError(ValueError):
    """Request validation failure (HTTP 400 analog, search.go:56-63)."""


class _Request:
    """What both request types share: parsing and the page bounds."""

    @classmethod
    def parse(cls, params):
        """The request named by ``params``: GET query lists (the first
        value of a repeated name counts) or one msearch JSON object,
        whose scalars are read as their text."""
        kw = {}
        for f in fields(cls):
            names = ALIASES.get(f.name, (f.name,))
            raw = next((v for v in map(params.get, names) if v is not None and v != []), None)
            if raw is None:
                continue
            raw = str(raw[0] if isinstance(raw, list) else raw)
            if f.type == "int":
                try:
                    kw[f.name] = int(raw)
                except ValueError as e:
                    raise SearchError(f"invalid integer for {names[0]}: {raw!r}") from e
            else:
                kw[f.name] = raw.lower() in TRUE_VALUES if f.type.startswith("bool") else raw
        return cls(**kw)

    @classmethod
    def of(cls, request):
        """``request`` itself, or the request its keyword dict names."""
        return request if isinstance(request, cls) else cls(**request)

    def _check_page(self) -> None:
        for name, v, hi in (("size", self.size, 10000), ("from", self.from_, 9999)):
            if isinstance(v, bool) or not isinstance(v, Integral) or not 0 <= v <= hi:
                raise SearchError(f"{name} must be an integer in [0, {hi}]")


@dataclass(frozen=True)
class AutocompleteRequest(_Request):
    """``/autocomplete`` (app/actions/auto_complete.go)."""

    s: str | None = None
    size: int = 10
    from_: int = 0
    nsfw: bool | None = None

    def __post_init__(self):
        if not isinstance(self.s, str) or not self.s:
            raise SearchError("s is required")
        self._check_page()


@dataclass(frozen=True)
class SearchRequest(_Request):
    """``/search`` (app/actions/search/search.go:26-49).  ``score`` only
    asks the HTTP layer to keep the score column (``debug`` keeps it
    too), so it is no part of the request's identity."""

    s: str | None = None
    size: int = 10
    from_: int = 0
    channel: str | None = None
    channel_id: str | None = None
    related_to: str | None = None
    sort_by: str | None = None
    include: str | None = None
    content_type: str | None = None
    media_type: str | None = None
    claim_type: str | None = None
    nsfw: bool | None = None
    free_only: bool | None = None
    resolve: bool = False
    claim_id: str | None = None
    source: bool = False
    debug: bool = False
    score: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.s, str) or not 3 <= len(self.s) <= 99999:
            raise SearchError("s is required with length in [3, 99999]")
        self._check_page()
        for t in (self.media_type or "").split(","):
            if t not in MEDIA_TYPES and t not in ("cad", ""):
                raise SearchError(f"invalid media type {t!r}")
        if self.sort_by is not None and self.sort_by.lstrip("^") not in DOC_COLUMNS:
            raise SearchError(f"unknown sort field {self.sort_by.lstrip('^')!r}")
        missing = [c for c in self.columns() if c not in HIT_COLUMNS]
        if missing:
            raise SearchError(f"unknown include fields {missing}")

    def columns(self) -> list[str]:
        """The hit columns this request projects, in order
        (search.go:79-91); ``source`` projects every one."""
        if self.source:
            return list(HIT_COLUMNS)
        cols = ["name", "claimId", *(c for c in (self.include or "").split(",") if c)]
        if self.resolve:
            cols += [c for c in RESOLVE_COLUMNS if c not in cols]
        return cols

    def for_partition(self) -> SearchRequest:
        """This request as one ordinal range of a partitioned service
        answers it: the unpaged top from+size, with the sort field among
        the hit columns so the coordinator can merge on it.  It is made
        from a validated request, so its size may pass 10,000."""
        include = self.include
        key = self.sort_by and self.sort_by.lstrip("^")
        if key and key not in self.columns() + ["ordinal"] * self.debug:
            include = f"{include},{key}" if include else key
        part = copy.copy(self)
        part.__dict__.update(size=self.from_ + self.size, from_=0, include=include)
        return part


def msearch_item(answer) -> dict:
    """One ``_msearch`` response item: the hits ``answer()`` returns, or
    its error (400 for a request error, 500 otherwise) isolated from the
    rest of the batch, as in ES's per-item ``responses`` array."""
    try:
        return {"status": 200, "hits": answer()}
    except SearchError as e:
        return {"status": 400, "error": str(e)}
    except Exception as e:  # noqa: BLE001 — per-item isolation
        return {"status": 500, "error": str(e)}
