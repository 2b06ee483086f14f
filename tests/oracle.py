"""Naive-but-obviously-correct in-memory oracle for the search engine.

Independent reimplementation of the engine spec (SURVEY.md §2.4 +
documented deviations in lighthouse_ray/query/engine.py) using plain
Python dicts and loops — no postings, no numpy scoring, no shared code
with the distributed engine except the tokenizer (which is the single
analysis definition by design and has its own three-way parity tests).

The distributed engine must be rank-identical with equal scores
(atol 1e-6) on the fixture query suite (FIXTURES.md §3).
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter

from lighthouse_ray.analysis import tokenize_text

DAY = 86400.0
_RELEASE_LO = 1_609_459_200
_RELEASE_SPAN = 157_766_400
QUOTED_RE = re.compile(r'"([^"]*)"$')
MEDIA_TYPES = ("audio", "video", "text", "application", "image")
CLAIM_TYPE_MAP = {"channel": "channel", "file": "stream"}
FIELDS = ("name", "title", "channel", "content")


def _h64_of(doc_id: str) -> int:
    return int(doc_id[:16], 16)


class OracleDoc:
    def __init__(self, repo, path, commit, lang, content):
        self.repo, self.path, self.commit, self.lang, self.content = (
            repo, path, commit, lang, content,
        )
        self.doc_id = hashlib.sha1(f"{repo}\0{path}\0{commit}".encode()).hexdigest()
        h = _h64_of(self.doc_id)
        self.effective_amount = h % 10**9
        self.certificate_amount = (h >> 7) % 10**8
        self.view_cnt = (h >> 13) % 10**6
        self.sub_cnt = (h >> 17) % 10**5
        self.claim_cnt = (h >> 21) % 500
        self.fee = ((h >> 23) % 100) if h % 3 == 0 else 0
        hb = h % 20
        self.bid_state = 0 if h % 3 == 0 else 1
        if hb == 18:
            self.bid_state = 2
        if hb == 19:
            self.bid_state = 3
        self.has_thumbnail = h % 4 != 0
        self.nsfw = h % 50 == 0
        self.release_time = _RELEASE_LO + ((h >> 3) % _RELEASE_SPAN)
        self.name = path.rsplit("/", 1)[-1]
        self.kind = "channel" if self.name.startswith("README.") else "stream"
        self.channel_claim_id = hashlib.sha1(repo.encode()).hexdigest()
        self.mime = ("text/" + lang) if lang == "md" else ("application/" + lang)

    def field_text(self, field):
        return {
            "name": self.name,
            "title": self.path,
            "channel": self.repo,
            "content": self.content,
        }[field]


class Oracle:
    def __init__(self, corpus_rows, k1=1.2, b=0.75, now_ts=1_767_225_600,
                 special_map=None, mlt_min_term_freq=2, mlt_min_doc_freq=5,
                 mlt_max_terms=25):
        self.k1, self.b, self.now = k1, b, float(now_ts)
        self.special = special_map or {}
        self.mlt_min_term_freq = mlt_min_term_freq
        self.mlt_min_doc_freq = mlt_min_doc_freq
        self.mlt_max_terms = mlt_max_terms

        latest = {}
        for r in corpus_rows:
            key = (r["repo"], r["path"])
            rank = (r["commit"], hashlib.sha256(r["content"].encode()).hexdigest())
            old = latest.get(key)
            if old is None or rank > (
                old["commit"], hashlib.sha256(old["content"].encode()).hexdigest()
            ):
                latest[key] = r
        docs = []
        for r in latest.values():
            d = OracleDoc(r["repo"], r["path"], r["commit"], r["lang"], r["content"])
            if d.bid_state >= 2:  # Spent/Expired delete-routed at build
                continue
            docs.append(d)
        docs.sort(key=lambda d: d.doc_id)
        self.docs = docs
        self.n = len(docs)

        self.toks = {f: [tokenize_text(d.field_text(f)) for d in docs] for f in FIELDS}
        self.positions = {f: [] for f in FIELDS}
        self.df = {f: Counter() for f in FIELDS}
        self.avgdl = {}
        for f in FIELDS:
            total = 0
            for i, toks in enumerate(self.toks[f]):
                total += len(toks)
                pos = {}
                for p, t in enumerate(toks):
                    pos.setdefault(t, []).append(p)
                self.positions[f].append(pos)
                for t in pos:
                    self.df[f][t] += 1
            self.avgdl[f] = total / self.n if self.n else 0.0
        self.dictionary = {f: sorted({t for pos in self.positions[f] for t in pos}) for f in FIELDS}

    # -- scoring -------------------------------------------------------------

    def idf(self, df):
        return math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))

    def _norm(self, field, i):
        dl = len(self.toks[field][i])
        return self.k1 * (1.0 - self.b + self.b * dl / max(self.avgdl[field], 1e-9))

    def term_score(self, field, term, i):
        tf = len(self.positions[field][i].get(term, ()))
        if tf == 0:
            return 0.0
        return self.idf(self.df[field][term]) * tf * (self.k1 + 1.0) / (tf + self._norm(field, i))

    def match(self, field, terms, i):
        s = sum(self.term_score(field, t, i) for t in terms)
        return s, any(t in self.positions[field][i] for t in terms)

    def fuzzy_expand(self, field, term, max_expansions=50):
        maxd = 0 if len(term) < 3 else (1 if len(term) < 6 else 2)
        if maxd == 0:
            return [term]
        d = self.dictionary[field]
        out = [term] if term in set(d) else []
        for cand in d:
            if cand == term or abs(len(cand) - len(term)) > maxd:
                continue
            if _edit_distance(term, cand) <= maxd:
                out.append(cand)
                if len(out) >= max_expansions:
                    break
        return out or [term]

    def match_fuzzy(self, field, terms, i):
        s, m = 0.0, False
        for t in terms:
            best = 0.0
            hit = False
            for e in self.fuzzy_expand(field, t):
                v = self.term_score(field, e, i)
                if v > best:
                    best = v
                hit = hit or e in self.positions[field][i]
            s += best
            m = m or hit
        return s, m

    def _phrase_freq_doc(self, pos_lists, slop):
        if any(len(p) == 0 for p in pos_lists):
            return 0
        if slop == 0:
            base = pos_lists[0]
            count = 0
            for p in base:
                if all((p + k) in set(pos_lists[k]) for k in range(1, len(pos_lists))):
                    count += 1
            return count
        count = 0
        for p0 in pos_lists[0]:
            prev, disp, ok = p0, 0, True
            for k in range(1, len(pos_lists)):
                nxt = [q for q in pos_lists[k] if q >= prev + 1]
                if not nxt:
                    ok = False
                    break
                disp += nxt[0] - (p0 + k)
                prev = nxt[0]
            if ok and disp <= slop:
                count += 1
        return count

    def phrase(self, field, terms, i, slop=0):
        if not terms:
            return 0.0, False
        if len(terms) == 1:
            s = self.term_score(field, terms[0], i)
            return s, terms[0] in self.positions[field][i]
        pos_lists = [self.positions[field][i].get(t, []) for t in terms]
        freq = self._phrase_freq_doc(pos_lists, slop)
        if freq == 0:
            return 0.0, False
        idf_sum = sum(self.idf(self.df[field][t]) for t in terms if t in self.df[field])
        s = idf_sum * freq * (self.k1 + 1.0) / (freq + self._norm(field, i))
        return s, True

    def phrase_prefix(self, field, terms, i, slop=5, max_expansions=50):
        if not terms:
            return 0.0, False
        exps = [t for t in self.dictionary[field] if t.startswith(terms[-1])][:max_expansions]
        if not exps:
            return 0.0, False
        union_df = len({j for j in range(self.n) for e in exps if e in self.positions[field][j]})
        union_pos = sorted({p for e in exps for p in self.positions[field][i].get(e, [])})
        if len(terms) == 1:
            tf = sum(len(self.positions[field][i].get(e, [])) for e in exps)
            if tf == 0:
                return 0.0, False
            s = self.idf(union_df) * tf * (self.k1 + 1.0) / (tf + self._norm(field, i))
            return s, True
        pos_lists = [self.positions[field][i].get(t, []) for t in terms[:-1]] + [union_pos]
        freq = self._phrase_freq_doc(pos_lists, slop)
        if freq == 0:
            return 0.0, False
        idf_sum = sum(self.idf(self.df[field][t]) for t in terms[:-1] if t in self.df[field])
        idf_sum += self.idf(union_df)
        s = idf_sum * freq * (self.k1 + 1.0) / (freq + self._norm(field, i))
        return s, True

    # -- MLT -----------------------------------------------------------------

    MLT_FIELDS = ("name", "title", "channel")

    def _mlt_terms(self, text):
        tf = Counter(tokenize_text(text))
        cands = []
        for t, f in tf.items():
            if f < self.mlt_min_term_freq or t == "https":
                continue
            df = max(self.df[fld].get(t, 0) for fld in self.MLT_FIELDS)
            if df < self.mlt_min_doc_freq:
                continue
            cands.append((f * self.idf(df), t))
        cands.sort(key=lambda x: (-x[0], x[1]))
        return [t for _s, t in cands[: self.mlt_max_terms]]

    def mlt_text(self, text, i, boost=1.0):
        s, m = 0.0, False
        for t in self._mlt_terms(text):
            for fld in self.MLT_FIELDS:
                v = self.term_score(fld, t, i)
                s += v
                m = m or t in self.positions[fld][i]
        return s * boost, m

    # -- search --------------------------------------------------------------

    def gauss_sum(self, ts):
        def g(offset_d, scale_d, decay, w):
            sigma2 = -((scale_d * DAY) ** 2) / (2.0 * math.log(decay))
            d = max(0.0, abs(ts - self.now) - offset_d * DAY)
            return w * math.exp(-(d * d) / (2 * sigma2))

        return g(7, 7, 0.5, 0.11) + g(30, 30, 0.5, 0.12) + g(90, 90, 0.5, 0.13) + g(365, 1825, 0.9, 1.0)

    def boost_should(self, d):
        s = math.log10(1 + d.effective_amount * 19.0)
        s += math.log10(1 + d.certificate_amount * 19.0)
        s += 300.0 if d.bid_state == 0 else 0.0
        s += 50.0 if d.has_thumbnail else 0.0
        s += math.log10(1 + d.view_cnt)
        s += math.log10(1 + d.sub_cnt)
        s += 2.0 if (d.kind == "channel" and d.claim_cnt > 10) else 0.0
        return s

    def search(self, s=None, size=None, from_=None, channel=None, channel_id=None,
               related_to=None, sort_by=None, content_type=None, media_type=None,
               claim_type=None, nsfw=None, free_only=None, claim_id=None):
        s = s[:300]
        s = self.special.get(s.lower(), s)
        terms = tokenize_text(s)
        cterms = tokenize_text(s.replace(" ", ""))
        at_boost = 10.0 if s.startswith("@") else 1.0

        results = []
        for i, d in enumerate(self.docs):
            if related_to is not None:
                if d.doc_id == related_to:
                    continue
                src = next((x for x in self.docs if x.doc_id == related_to), None)
                if src is None:
                    continue
                like = f"{src.name} {src.path} {src.repo}"
                score, matched = self.mlt_text(like, i, boost=2.0)
                decay = 1.0
            else:
                score, matched = 0.0, False
                for val, m in [
                    self.mlt_text(s, i),
                    self._b(self.phrase("name", terms, i), 2.0 * at_boost),
                    self._b(self.match_fuzzy("name", terms, i), at_boost),
                    self._b(self.phrase("name", terms, i), 10.0) if d.kind == "channel" else (0.0, False),
                    self.match_fuzzy("title", terms, i),
                    self._b(self.phrase("title", terms, i), 10.0),
                    self.match("content", terms, i),
                    self._b(self.phrase("content", terms, i), 2.0),
                    self._b(self.match_fuzzy("name", cterms, i), 10.0) if d.kind == "channel" else (0.0, False),
                    self._b(self.match("channel", terms, i), 5.0) if d.kind == "stream" else (0.0, False),
                    self._b(self.phrase("channel", cterms, i), 5.0) if d.kind == "stream" else (0.0, False),
                ]:
                    score += val if m else 0.0
                    matched = matched or m
                if matched:
                    score += self.boost_should(d)
                decay = self.gauss_sum(float(d.release_time))

            if not matched:
                continue
            if not self._filters_ok(d, i, s, channel, channel_id, content_type,
                                    media_type, claim_type, nsfw, free_only,
                                    claim_id, related_to):
                continue
            results.append((d.doc_id, score * decay, i, d))

        if sort_by is not None:
            fieldname = sort_by.lstrip("^")
            ascending = sort_by.startswith("^")
            # mirror the engine exactly (engine.py:192-194): lexsort on
            # (field, doc_id) ascending, then reverse the whole order for
            # descending — so the doc_id tie-break is ascending for
            # ascending sorts and DESCENDING for descending sorts
            results.sort(key=lambda r: (getattr(r[3], fieldname), r[0]))
            if not ascending:
                results.reverse()
        else:
            results.sort(key=lambda r: (-r[1], r[0]))
        k_from = from_ or 0
        k_size = size if size is not None else 10
        return [(doc_id, sc) for doc_id, sc, _i, _d in results[k_from : k_from + k_size]]

    @staticmethod
    def _b(res, boost):
        return res[0] * boost, res[1]

    def _filters_ok(self, d, i, s, channel, channel_id, content_type, media_type,
                    claim_type, nsfw, free_only, claim_id, related_to):
        if d.bid_state == 3:
            return False
        quoted = QUOTED_RE.findall(s)
        if quoted:
            hit = False
            for q in quoted:
                qt = tokenize_text(q)
                for f in ("channel", "name", "title", "content"):
                    if self.phrase(f, qt, i)[1]:
                        hit = True
            if not hit:
                return False
        if nsfw is not None and d.nsfw != nsfw:
            return False
        if free_only and d.fee != 0:
            return False
        if content_type is not None and d.mime not in content_type.split(","):
            return False
        if media_type is not None:
            ok = False
            valid = False
            for t in media_type.split(","):
                if t in MEDIA_TYPES:
                    valid = True
                    ok = ok or d.mime.startswith(t + "/")
                elif t == "cad":
                    valid = True
            if not valid or not ok:
                return False
        if claim_type is not None:
            mapped = CLAIM_TYPE_MAP.get(claim_type)
            if mapped and d.kind != mapped:
                return False
        if channel_id is not None and d.channel_claim_id != channel_id:
            return False
        if channel is not None:
            if not self.match("channel", tokenize_text(channel), i)[1]:
                return False
        if claim_id is not None and d.doc_id != claim_id:
            return False
        if related_to is not None and d.kind != "stream":
            return False
        return True

    # -- autocomplete ----------------------------------------------------------

    def autocomplete(self, s, size=None, from_=None, nsfw=None):
        terms = tokenize_text(s)
        results = []
        for i, d in enumerate(self.docs):
            if s.startswith("@"):
                if d.kind != "channel":
                    continue
                score, m = self.match("name", terms, i)
            else:
                s1, m1 = self.phrase_prefix("name", terms, i)
                c, mc = self.phrase_prefix("channel", terms, i)
                t, mt = self.phrase_prefix("title", terms, i)
                b, mb = self.phrase_prefix("content", terms, i)
                score = s1 * 4.0 + max(c * 3.0, t * 5.0, b * 2.0)
                m = m1 or mc or mt or mb
            if not m:
                continue
            if nsfw is not None and d.nsfw != nsfw:
                continue
            results.append((d.doc_id, score, d.name))
        results.sort(key=lambda r: (-r[1], r[0]))
        k_from = from_ or 0
        k_size = size if size is not None else 10
        page = results[k_from : k_from + k_size]
        seen, out = set(), []
        for _id, _s, name in page:
            if name not in seen:
                seen.add(name)
                out.append(name)
        return out


def project_reference(meta, ords, scores, include, resolve, source, debug):
    """The pandas hit projection ``SearchEngine._project`` replaced:
    copy every docmeta column for the page, derive all claim fields,
    then keep the requested ones (search.go:79-91)."""
    import numpy as np

    from lighthouse_ray.query.request import RESOLVE_COLUMNS, SearchError

    rows = meta.iloc[ords].copy()
    rows["claimId"] = rows["doc_id"]
    rows["thumbnail_url"] = np.where(
        rows["has_thumbnail"], "https://thumbs/" + rows["doc_id"].str[:8] + ".png", ""
    )
    rows["channel"] = rows["repo"]
    rows["title"] = rows["path"]
    rows["duration"] = 0
    cols = ["name", "claimId"]
    if include:
        cols += [c for c in include.split(",") if c]
    if resolve:
        cols += [c for c in RESOLVE_COLUMNS if c not in cols]
    if source:
        cols = [c for c in rows.columns if c != "content"]
    missing = [c for c in cols if c not in rows.columns]
    if missing:
        raise SearchError(f"unknown include fields {missing}")
    out = rows[cols].reset_index(drop=True)
    out["score"] = scores[ords]
    if debug:
        out["ordinal"] = ords
    return out


def segment_dictionary(index_dir, field):
    """The sorted distinct base terms of ``field`` scanned from every
    segment shard's term column, de-salted (``term\\x01salt`` -> ``term``):
    the reference for the reader's ``dict/`` sidecar."""
    import os

    import numpy as np
    import pyarrow.dataset as pads

    t = pads.dataset(os.path.join(index_dir, "segments")).to_table(
        columns=["field", "term"], filter=pads.field("field") == field
    )
    terms = [s.split("\x01", 1)[0] for s in t["term"].to_pylist()]
    return np.unique(np.asarray(terms, dtype=object))


def _edit_distance(a, b):
    la, lb = len(a), len(b)
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[lb]
