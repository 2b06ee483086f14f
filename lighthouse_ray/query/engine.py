"""SearchEngine: the reference's /search and /autocomplete surface.

Mirrors the compound query the reference builds per request
(app/actions/search/query.go:21-71 ``newQuery``):

    function_score(score_mode=sum, boost_mode=multiply):
      query: bool(
        should: 7 boost clauses           # func_score.go
        must:   bool(should: 11 matchers, min_should_match=1)
        filter: getFilters()              # non-scoring
      )
      functions: 4 gauss decays on release_time (frozen "now")

    related_to variant: bool(should: more_like_this(doc), filter: ...)
    with no decay functions.

Field mapping (SURVEY.md §1.3): name <- basename(path), title <- path,
channel <- repo, description <- content, claim_type <- kind
(README-at-root = "channel" doc), content_type <- mime, claimId <- doc_id.

Documented deviations from ES internals (our in-memory oracle mirrors
these exactly; see tests/oracle.py):
- a ``match`` on the single-token ``kind``/``mime`` fields contributes no
  score (pure predicate) where Lucene would add a small BM25 term score;
- sloppy-phrase freq uses a greedy alignment (scoring.py);
- doclen norms are exact (Lucene 6 quantizes them to 1 byte).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

from ..analysis import tokenize_text
from ..index import IndexReader
from ..index.suggest import WeightedCompleter
from ..util import top_k
from .scoring import DenseResult, Scorer

QUOTED_RE = re.compile(r'"([^"]*)"$')
MEDIA_TYPES = ("audio", "video", "text", "application", "image")
CAD_TYPES = ("SKP", "simplify3d_stl")
CLAIM_TYPE_MAP = {"channel": "channel", "file": "stream"}
TRUNCATE_AT = 300  # special.go:43-50
EFFECTIVE_FACTOR = 19.0  # func_score.go:9

DAY = 86400.0

DERIVED_COLUMNS = ("claimId", "thumbnail_url", "channel", "title", "duration")
RESOLVE_COLUMNS = [
    "channel", "channel_claim_id", "title", "thumbnail_url", "release_time",
    "fee", "nsfw", "duration",
]


class SearchError(ValueError):
    """Request validation failure (HTTP 400 analog, search.go:56-63)."""


class _TTLCache:
    """Request cache: max_size entries, TTL seconds, keyed by the request
    (ccache analog — search.go:24,117 / auto_complete.go:32,103:
    10,000 entries, 5-minute TTL, keyed by request URI)."""

    def __init__(self, max_size: int = 10000, ttl: float = 300.0, clock=None):
        import time as _time

        self.max_size = max_size
        self.ttl = ttl
        self.clock = clock or _time.monotonic
        self._d: dict = {}

    def get(self, key):
        hit = self._d.get(key)
        if hit is None:
            return None
        ts, val = hit
        if self.clock() - ts > self.ttl:
            del self._d[key]
            return None
        return val

    def put(self, key, val) -> None:
        if len(self._d) >= self.max_size:
            # drop the oldest entries (insertion order approximates LRU)
            for k in list(self._d)[: max(1, self.max_size // 100)]:
                del self._d[k]
        self._d[key] = (self.clock(), val)


class SearchEngine:
    def __init__(
        self,
        reader: IndexReader,
        special_map: dict[str, str] | None = None,
        mlt_min_term_freq: int = 2,
        mlt_min_doc_freq: int = 5,
        mlt_max_terms: int = 25,
        cache_ttl: float = 300.0,
    ):
        self.r = reader
        self.scorer = Scorer(reader)
        self.special = special_map or {}
        self.mlt_min_term_freq = mlt_min_term_freq
        self.mlt_min_doc_freq = mlt_min_doc_freq
        self.mlt_max_terms = mlt_max_terms
        self._meta = reader.docmeta()
        # per-column arrays for hit projection; derived claim fields
        # (see _hit_column) follow the docmeta columns
        self._cols = {c: self._meta[c].to_numpy() for c in self._meta.columns}
        self._hit_columns = [*self._cols, *DERIVED_COLUMNS]
        self._decay_cache: np.ndarray | None = None
        self._boost_cache: np.ndarray | None = None
        self._bid_mask_cache: np.ndarray | None = None
        # per-index constant: comparing 1M-row object-string columns
        # costs ~50 ms per call — never do it per request
        self._is_channel: np.ndarray = (
            self._meta["kind"].to_numpy() == "channel"
        )
        self._use_cache = cache_ttl > 0
        self._cache = _TTLCache(ttl=cache_ttl or 1.0)
        self._ac_cache = _TTLCache(ttl=cache_ttl or 1.0)
        self._completers: dict[str, WeightedCompleter] = {}

    # ------------------------------------------------------------------ search

    def search(
        self,
        s: str | None = None,
        size: int | None = None,
        from_: int | None = None,
        channel: str | None = None,
        channel_id: str | None = None,
        related_to: str | None = None,
        sort_by: str | None = None,
        include: str | None = None,
        content_type: str | None = None,
        media_type: str | None = None,
        claim_type: str | None = None,
        nsfw: bool | None = None,
        free_only: bool | None = None,
        resolve: bool = False,
        claim_id: str | None = None,
        source: bool = False,
        debug: bool = False,
        _partial: bool = False,
    ) -> pd.DataFrame:
        # validation (search.go:56-63, app/validator/validator.go)
        if s is None or len(s) < 3 or len(s) > 99999:
            raise SearchError("s is required with length in [3, 99999]")
        if size is not None and size > 10000:
            raise SearchError("size must be <= 10000")
        if from_ is not None and from_ > 9999:
            raise SearchError("from must be <= 9999")
        if _partial:
            # one range of a partitioned service: return the unpaged top
            # from+size, which the coordinator merges and then pages
            size, from_ = (from_ or 0) + (size if size is not None else 10), 0
        if media_type is not None:
            for t in media_type.split(","):
                if t not in MEDIA_TYPES and t not in ("cad", ""):
                    raise SearchError(f"invalid media type {t!r}")

        s = s[:TRUNCATE_AT]                      # truncate (special.go:43-50)
        s = self.special.get(s.lower(), s)       # taylored rewrites (special.go:5-41)

        # request cache (search.go:117); debug requests bypass it
        cache_key = (
            s, size, from_, channel, channel_id, related_to, sort_by, include,
            content_type, media_type, claim_type, nsfw, free_only, resolve,
            claim_id, source,
        )
        if not debug and self._use_cache:
            hit = self._cache.get(cache_key)
            if hit is not None:
                return hit.copy()

        n = self.r.n_docs
        meta = self._meta

        fmask = self._filter_mask(
            s=s, channel=channel, channel_id=channel_id, content_type=content_type,
            media_type=media_type, claim_type=claim_type, nsfw=nsfw,
            free_only=free_only, claim_id=claim_id, related_to=related_to,
        )

        explain_clauses = None
        if related_to is not None:
            base_scores, base_mask = self._related_scores(related_to)
            decay = None
        else:
            # docs outside fmask are dropped at the AND below, so the
            # expensive positional phrase clauses only need to verify
            # filter-surviving docs: pass the filter ordinals as `within`
            # when the filter is selective (a quoted-phrase query filters
            # to a tiny set; the dense clause arithmetic is then bounded
            # by it).  Scores at kept docs are bit-identical either way.
            nf = int(fmask.sum())
            within = np.flatnonzero(fmask) if nf < (n >> 1) else None
            base_scores, base_mask, explain_clauses = self._general_scores_explained(
                s, within=within
            )
            decay = self._decay_multiplier()
        cand = base_mask & fmask
        ords = np.flatnonzero(cand)
        scores = np.zeros(n)
        if decay is None:
            scores[ords] = base_scores[ords]
        else:
            scores[ords] = base_scores[ords] * decay[ords]
        if sort_by is not None:
            field = sort_by.lstrip("^")
            ascending = sort_by.startswith("^")  # search.go:113-116
            if field not in meta.columns:
                raise SearchError(f"unknown sort field {field!r}")
            key = meta[field].to_numpy()[ords]
            doc_ids = meta["doc_id"].to_numpy()[ords]
            order = np.lexsort((doc_ids, key))  # (field, claimId) ascending
            if not ascending:
                order = order[::-1]
            ords = ords[order]
        else:
            # score desc, claimId asc tie-break (deterministic at any
            # parallelism; ES ties by internal doc order which is not).
            # Only the cut's survivors gather their doc_id strings:
            # lexsorting all of them costs ~100 ms at 1M candidates.
            doc_ids = meta["doc_id"].to_numpy()
            need = (from_ or 0) + (size if size is not None else 10)
            ords = ords[top_k(scores[ords], lambda p: doc_ids[ords[p]], need)]

        k_from = from_ or 0
        k_size = size if size is not None else 10
        page = ords[k_from : k_from + k_size]

        out = self._project(page, scores, include, resolve, source, debug)
        if debug and explain_clauses is not None:
            # ES Explain analog (search.go:103-112): per-clause score
            # contributions for the returned docs — the parity-debug tool
            out["explain"] = [
                {
                    name: float(c.scores[o] * c.boost)
                    for name, c in explain_clauses
                    if c.mask[o]
                }
                for o in page
            ]
        if not debug and self._use_cache:
            self._cache.put(cache_key, out.copy())
        return out

    # -- clause assembly (query.go:21-71) --------------------------------------

    def _general_scores_explained(
        self, s: str, within: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, list[tuple[str, DenseResult]]]:
        sc = self.scorer
        n = self.r.n_docs
        is_channel = self._is_channel
        is_stream = ~is_channel

        terms = tokenize_text(s)
        compressed_terms = tokenize_text(s.replace(" ", ""))
        at_boost = 10.0 if s.startswith("@") else 1.0

        # `within` (sorted ordinals of the request's filter mask, when
        # selective): the positional phrase clauses verify only those
        # docs — every other doc is dropped by the filter AND in
        # search(), so its clause score is never read.  Cheap dense
        # clauses (match / fuzzy) stay unrestricted.
        # clause names = the reference's QueryName strings (query.go)
        minc: list[tuple[str, DenseResult]] = [
            ("more-like-this", self._mlt_text(s)),
            ("name-match-phrase", sc.phrase("name", terms, within=within).boosted(2.0 * at_boost)),
            ("name-match", sc.match_fuzzy("name", terms).boosted(1.0 * at_boost)),
            ("channel-phrase-match", sc.phrase("name", terms, within=within).restrict(is_channel).boosted(10.0)),
            ("title-match", sc.match_fuzzy("title", terms).boosted(1.0)),
            ("title-match-phrase", sc.phrase("title", terms, within=within).boosted(10.0)),
            ("description-match", sc.match("content", terms).boosted(1.0)),
            ("description-match-phrase", sc.phrase("content", terms, within=within).boosted(2.0)),
            ("name-match-@compressed", sc.match_fuzzy("name", compressed_terms).boosted(10.0).restrict(is_channel)),
            ("channel-match-@boost", sc.match("channel", terms).restrict(is_stream).boosted(5.0)),
            ("channel-match-@compressed", sc.phrase("channel", compressed_terms, within=within).boosted(5.0).restrict(is_stream)),
        ]

        min_mask = np.zeros(n, dtype=bool)
        for _name, c in minc:
            min_mask |= c.mask

        # accumulate only over the candidate union — identical float
        # order to the dense loop (clause order, then boost), but the
        # arithmetic touches |candidates| entries instead of 12 x n
        cand = np.flatnonzero(min_mask)
        acc = np.zeros(len(cand))
        for _name, c in minc:
            acc += c.gathered(cand)
        boost = self._boost_should_scores(is_channel)
        total = np.zeros(n)
        total[cand] = acc + boost[cand]
        clauses = minc + [("boost-clauses", DenseResult(boost, min_mask.copy()))]
        return total, min_mask, clauses

    def _boost_should_scores(self, is_channel: np.ndarray) -> np.ndarray:
        """The 7 unconditional should clauses (func_score.go) — doc-value
        only, query-independent: computed once per engine."""
        if self._boost_cache is not None:
            return self._boost_cache
        sc = self.scorer
        meta = self._meta
        out = sc.fvf_log1p(meta["effective_amount"].to_numpy(), EFFECTIVE_FACTOR)
        out = out + sc.fvf_log1p(meta["certificate_amount"].to_numpy(), EFFECTIVE_FACTOR)
        out = out + np.where(meta["bid_state"].to_numpy() == 0, 300.0, 0.0)  # Controlling
        out = out + np.where(meta["has_thumbnail"].to_numpy(), 50.0, 0.0)
        out = out + sc.fvf_log1p(meta["view_cnt"].to_numpy())
        out = out + sc.fvf_log1p(meta["sub_cnt"].to_numpy())
        out = out + np.where(is_channel & (meta["claim_cnt"].to_numpy() > 10), 2.0, 0.0)
        self._boost_cache = out
        return out

    def _decay_multiplier(self) -> np.ndarray:
        """4 stacked gauss decays, score_mode=sum, boost_mode=multiply
        (query.go:63-70, func_score.go:44-88); "now" frozen at build —
        query-independent, computed once per engine."""
        if self._decay_cache is not None:
            return self._decay_cache
        sc = self.scorer
        ts = self._meta["release_time"].to_numpy().astype(np.float64)
        now = float(self.r.now_ts)
        m = sc.gauss(ts, now, 7 * DAY, 7 * DAY, 0.50, 0.11)
        m = m + sc.gauss(ts, now, 30 * DAY, 30 * DAY, 0.50, 0.12)
        m = m + sc.gauss(ts, now, 90 * DAY, 90 * DAY, 0.50, 0.13)
        m = m + sc.gauss(ts, now, 365 * DAY, 1825 * DAY, 0.90, 1.0)
        self._decay_cache = m
        return m

    # -- more-like-this (query.go:106-121) -------------------------------------

    MLT_FIELDS = ("name", "title", "channel")

    def _mlt_select_terms(self, text: str) -> list[str]:
        tf: dict[str, int] = {}
        for t in tokenize_text(text):
            tf[t] = tf.get(t, 0) + 1
        cands = []
        for t, f in tf.items():
            if f < self.mlt_min_term_freq or t == "https":  # IgnoreLikeText
                continue
            # df per queried field (ES analyzes/selects per field); use the
            # max across the MLT fields for the frequency gate and ranking
            df = 0
            for fld in self.MLT_FIELDS:
                tp = self.r.lookup(fld, t)
                if tp and tp.df > df:
                    df = tp.df
            if df < self.mlt_min_doc_freq:
                continue
            cands.append((f * self.scorer.idf(df), t))
        cands.sort(key=lambda x: (-x[0], x[1]))
        return [t for _s, t in cands[: self.mlt_max_terms]]

    def _mlt_text(self, s: str, boost: float = 1.0) -> DenseResult:
        out = DenseResult.empty(self.r.n_docs)
        for t in self._mlt_select_terms(s):
            for f in self.MLT_FIELDS:
                self.scorer._accumulate_term(f, t, out.scores, out.mask)
        return out.boosted(boost)

    def _related_scores(self, related_to: str) -> tuple[np.ndarray, np.ndarray]:
        meta = self._meta
        hit = meta.index[meta["doc_id"] == related_to]
        if len(hit) == 0:
            n = self.r.n_docs
            return np.zeros(n), np.zeros(n, dtype=bool)
        row = meta.iloc[int(hit[0])]
        like = f"{row['name']} {row['path']} {row['repo']}"
        r = self._mlt_text(like, boost=2.0).materialize()  # Boost(2), query.go:117-119
        r.mask[int(hit[0])] = False          # a doc is not related to itself
        r.scores[int(hit[0])] = 0.0
        return r.scores, r.mask

    # -- filters (query.go:258-410) ---------------------------------------------

    def _filter_mask(
        self, s: str, channel, channel_id, content_type, media_type,
        claim_type, nsfw, free_only, claim_id, related_to,
    ) -> np.ndarray:
        meta = self._meta
        n = self.r.n_docs
        # bid_state must_not Expired (query.go:386-388); expired docs are
        # delete-routed at build, so this is belt-and-braces parity —
        # constant per index, cached
        if self._bid_mask_cache is None:
            self._bid_mask_cache = meta["bid_state"].to_numpy() != 3
        mask = self._bid_mask_cache.copy()

        # quoted exact phrases `"..."$` (query.go:230-254): bool-of-shoulds
        m = QUOTED_RE.findall(s)
        if m:
            any_hit = np.zeros(n, dtype=bool)
            for q in m:
                qt = tokenize_text(q)
                for f in ("channel", "name", "title", "content"):
                    any_hit |= self.scorer.phrase(f, qt).mask
            mask &= any_hit

        if nsfw is not None:
            col = meta["nsfw"].to_numpy().astype(bool)
            mask &= col if nsfw else ~col

        if free_only:
            mask &= meta["fee"].to_numpy() == 0

        if content_type is not None:
            allowed = set(content_type.split(","))
            mask &= np.isin(meta["mime"].to_numpy(), list(allowed))

        if media_type is not None:
            mtypes = [t for t in media_type.split(",") if t]
            any_hit = np.zeros(n, dtype=bool)
            valid = False
            mime = meta["mime"].to_numpy()
            for t in mtypes:
                if t in MEDIA_TYPES:
                    valid = True
                    any_hit |= np.char.startswith(mime.astype(str), t + "/")
                elif t == "cad":
                    valid = True
                    any_hit |= np.isin(mime, list(CAD_TYPES))
            mask &= any_hit if valid else np.zeros(n, dtype=bool)  # match_none

        if claim_type is not None:
            mapped = CLAIM_TYPE_MAP.get(claim_type)
            if mapped:
                mask &= self._is_channel if mapped == "channel" else ~self._is_channel

        if channel_id is not None:
            mask &= meta["channel_claim_id"].to_numpy() == channel_id

        if channel is not None:
            cterms = tokenize_text(channel)
            mask &= self.scorer.match("channel", cterms).mask

        if claim_id is not None:
            mask &= meta["doc_id"].to_numpy() == claim_id

        if related_to is not None:
            mask &= ~self._is_channel  # relatedContentFilter

        return mask

    # -- projection (search.go:79-91) --------------------------------------------

    def _project(self, ords: np.ndarray, scores: np.ndarray, include, resolve, source, debug) -> pd.DataFrame:
        cols = ["name", "claimId"]
        if include:
            cols += [c for c in include.split(",") if c]
        if resolve:
            cols += [c for c in RESOLVE_COLUMNS if c not in cols]
        if source:
            cols = [c for c in self._hit_columns if c != "content"]
        missing = [c for c in cols if c not in self._hit_columns]
        if missing:
            raise SearchError(f"unknown include fields {missing}")
        # gather only the requested columns, by position so a column
        # named twice (include=claimId,name) stays two columns
        out = pd.DataFrame(
            {i: self._hit_column(c, ords) for i, c in enumerate(cols)}, copy=False
        )
        out.columns = cols
        out["score"] = scores[ords]
        if debug:
            out["ordinal"] = ords
        return out

    def _hit_column(self, name: str, ords: np.ndarray) -> np.ndarray:
        """One projected hit column for the page ``ords``: a docmeta
        column or one of the derived claim fields (search.go:79-91)."""
        col = self._cols
        if name == "claimId":
            return col["doc_id"][ords]
        if name == "thumbnail_url":
            url = np.full(len(ords), "", dtype=object)
            has = col["has_thumbnail"][ords]
            url[has] = ["https://thumbs/" + d[:8] + ".png" for d in col["doc_id"][ords[has]]]
            return url
        if name == "channel":
            return col["repo"][ords]
        if name == "title":
            return col["path"][ords]
        if name == "duration":
            return np.zeros(len(ords), dtype=np.int64)
        return col[name][ords]

    # ------------------------------------------------------------ status

    def status(self) -> dict:
        """/status analog (app/actions/status.go:34-45): doc count +
        index stats (CatCount / IndexStats)."""
        stats = self.r.stats
        return {
            "count": self.r.n_docs,
            "index_stats": {
                "fields": stats["fields"],
                "num_term_shards": stats["num_term_shards"],
                "num_doc_parts": stats["num_doc_parts"],
                "hot_terms": len(stats["hot_terms"]),
            },
        }

    # ------------------------------------------------------------ msearch

    def msearch(self, requests: list[dict]) -> list[dict]:
        """ES ``_msearch`` analog at the engine level: run each request
        in turn, isolating failures per item (``SearchService.msearch``
        puts every request in flight on the replica grid first, with the
        same per-item statuses)."""
        out: list[dict] = []
        for req in requests:
            try:
                out.append({"status": 200, "hits": self.search(**req)})
            except SearchError as e:
                out.append({"status": 400, "error": str(e)})
            except Exception as e:  # noqa: BLE001 — per-item isolation
                out.append({"status": 500, "error": str(e)})
        return out

    # ------------------------------------------------------------ suggest

    SUGGEST_FIELDS = {"name": "name", "desc": "path"}  # title <- path

    def suggest(self, s: str | None = None, field: str = "name",
                size: int = 5) -> list[str]:
        """Completion-suggester analog (A3): the reference maps two ES
        ``completion`` fields, ``suggest_name`` and ``suggest_desc``
        (app/es/index/claims.go:20-25), but never populates weights or
        queries them upstream — so the semantics here are the documented
        minimal ES behavior: case-folded prefix match over the field's
        values, top-``size`` options deduplicated, ranked by frequency
        (weight analog) then value.  Served from a
        :class:`WeightedCompleter` over the field's case-folded unique
        values and their counts, built lazily once per field."""
        if not s:
            raise SearchError("s is required")
        col = self.SUGGEST_FIELDS.get(field)
        if col is None:
            raise SearchError(f"unknown suggest field {field!r} (name|desc)")
        completer = self._completers.get(col)
        if completer is None:
            low = np.char.lower(self._meta[col].to_numpy().astype(str))
            completer = WeightedCompleter(*np.unique(low, return_counts=True))
            self._completers[col] = completer
        return [value for value, _count in completer.complete(s.lower(), size)]

    # ------------------------------------------------------------ autocomplete

    def autocomplete(
        self,
        s: str | None = None,
        size: int | None = None,
        from_: int | None = None,
        nsfw: bool | None = None,
        _scored: bool = False,
    ) -> list[str] | tuple[list, list, list]:
        """/autocomplete (app/actions/auto_complete.go): returns an
        order-preserving first-occurrence-deduped list of names."""
        if not s:
            raise SearchError("s is required")
        if size is not None and size > 10000:
            raise SearchError("size must be <= 10000")
        if from_ is not None and from_ > 9999:
            raise SearchError("from must be <= 9999")

        ac_key = (s, size, from_, nsfw)
        if self._use_cache and not _scored:
            hit = self._ac_cache.get(ac_key)
            if hit is not None:
                return list(hit)

        n = self.r.n_docs
        meta = self._meta
        sc = self.scorer
        scores = np.zeros(n)
        mask = np.zeros(n, dtype=bool)

        if s.startswith("@"):
            terms = tokenize_text(s)
            r = sc.match("name", terms).restrict(self._is_channel)
            scores, mask = r.scores, r.mask
        else:
            terms = tokenize_text(s)
            # should 1: phrase_prefix on name^4
            r1 = sc.phrase_prefix("name", terms).boosted(4.0)
            # should 2: nested multi_match author^3/title^5/description^2
            # (value.* analogs: channel/title/content) — best_fields = max
            r2a = sc.phrase_prefix("channel", terms).boosted(3.0)
            r2b = sc.phrase_prefix("title", terms).boosted(5.0)
            r2c = sc.phrase_prefix("content", terms).boosted(2.0)
            # combine sparsely over the candidate union (same float order
            # as the dense max/add would produce per element)
            mask = r1.mask | r2a.mask | r2b.mask | r2c.mask
            idx = np.flatnonzero(mask)
            scores = np.zeros(n)
            scores[idx] = r1.gathered(idx) + np.maximum(
                np.maximum(r2a.gathered(idx), r2b.gathered(idx)), r2c.gathered(idx)
            )

        if nsfw is not None:
            col = meta["nsfw"].to_numpy().astype(bool)
            mask &= col if nsfw else ~col
            # scores outside the mask are never read (ords come from mask)

        ords = np.flatnonzero(mask)
        doc_ids = meta["doc_id"].to_numpy()
        k_from = from_ or 0
        k_size = size if size is not None else 10
        ords = ords[top_k(scores[ords], lambda p: doc_ids[ords[p]], k_from + k_size)]

        # page on the globally-sorted candidates, THEN ordered-dedup the
        # page (auto_complete.go:126-131)
        page = ords[k_from : k_from + k_size]
        names = meta["name"].to_numpy()[page]
        seen: set[str] = set()
        out: list[str] = []
        for nm in names:
            if nm not in seen:
                seen.add(nm)
                out.append(nm)
        if not _scored:
            self._ac_cache.put(ac_key, list(out))
        if _scored:
            # partial-result mode for the range-partitioned coordinator:
            # this range's top (from+size) candidates with merge keys
            top = ords[: k_from + k_size]
            return (
                meta["name"].to_numpy()[top].tolist(),
                scores[top].tolist(),
                doc_ids[top].tolist(),
            )
        return out
