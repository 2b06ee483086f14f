"""The request contract as a property: seeded random parameter maps, sent
through GET, ``/msearch`` and the engine, at K × R ∈ {1×1, 3×2}.

The maps mix valid, boundary, negative, non-numeric, unknown-enum,
duplicated, non-ASCII and 100k-char values.  Every answer must be a 200
whose hits equal the oracle's (and every path's), or a 400 with the same
message on every path — never a 500.  A GET whose URL is longer than the
64 KiB request line ``http.server`` reads is answered 414 before any
handler runs; such maps are checked through msearch and the engine.
"""

import http.client
import json
import random
import urllib.parse

import numpy as np
import pytest

from lighthouse_ray.config import IndexConfig
from lighthouse_ray.corpus import gen_corpus

from .oracle import Oracle

N_DOCS = 100
N_CASES = 1400
CFG = IndexConfig(num_doc_parts=8, num_term_shards=16, salt_range=64, df_sample_mod=10)
MAX_URL = 65_000  # below http.server's 65,536-byte request line

HUGE = "x" * 100_000
# any parameter may get one of these
HOSTILE = ["-1", "-5", "ten", "1.5", "", "٣", "9" * 5000, "sørt ünïcødé 検索", "a&b=c%d#e+f", HUGE]
BOOLS = ["true", "false", "on", "", "0", "YES", "ja"]
INTS = ["0", "3", "10", "25", "007", "10000", "10001", "9999"]
# each name lists its accepted spellings and its own values
SEARCH = {
    "s": (["s"], ["merge segment", "import", "@readme", "buffer flush", "abc", "ab",
                  'parse "exact phrase matching support"', "x" * 99_999]),
    "size": (["size"], INTS),
    "from": (["from"], INTS),
    "sort_by": (["sort_by", "sortBy"], ["release_time", "^release_time", "^fee", "name",
                                        "view_cnt", "^doc_id", "bogus", "claimId", "^"]),
    "include": (["include"], ["title,channel", "claimId", "ordinal,ordinal", "lang,,repo",
                              "bogus", "content", "release_time"]),
    "media_type": (["media_type", "mediaType"], ["text", "application,text", "audio", "cad",
                                                 "bogus", "text,bogus", ","]),
    "content_type": (["content_type", "contentType"], ["application/py", "text/md"]),
    "claim_type": (["claim_type", "claimType"], ["channel", "file", "bogus"]),
    "channel": (["channel"], ["org0/repo0", "org1/repo14"]),
    "channel_id": (["channel_id", "channelId", "channelID"], ["0" * 40]),
    "claim_id": (["claim_id", "claimId", "claimID"], ["0" * 40]),
    "related_to": (["related_to", "relatedTo"], ["nope"]),
    "nsfw": (["nsfw"], BOOLS),
    "free_only": (["free_only", "freeOnly"], BOOLS),
    "resolve": (["resolve"], BOOLS),
    "source": (["source"], BOOLS),
    "debug": (["debug"], BOOLS),
    "score": (["score"], BOOLS),
}
AUTOCOMPLETE = {
    "s": (["s"], ["imp", "merge se", "@read", "fil", "", "ünï", HUGE]),
    "size": (["size"], INTS),
    "from": (["from"], INTS),
    "nsfw": (["nsfw"], BOOLS),
}


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    import ray.data as rd

    from lighthouse_ray.build import build_index

    table = gen_corpus(N_DOCS)
    idx = str(tmp_path_factory.mktemp("contract") / "index")
    build_index(rd.from_arrow(table), idx, CFG)
    return idx, Oracle(table.to_pylist())


def gen_cases(rng: random.Random, oracle: Oracle) -> list[tuple[str, dict]]:
    """(route, GET-shaped parameter map) pairs; a map's values are lists,
    so a name may be repeated."""
    real = {  # a value that names a real doc or channel of the corpus
        "claim_id": rng.choice(oracle.docs).doc_id,
        "related_to": rng.choice(oracle.docs).doc_id,
        "channel_id": rng.choice(oracle.docs).channel_claim_id,
    }
    cases = []
    for _ in range(N_CASES):
        route, spec = ("/autocomplete", AUTOCOMPLETE) if rng.random() < 0.2 else ("/search", SEARCH)
        names = [n for n in spec if n != "s"]
        chosen = (["s"] if rng.random() < 0.95 else []) + rng.sample(names, rng.randint(0, min(4, len(names))))
        params: dict[str, list[str]] = {}
        for name in chosen or ["size"]:
            spellings, values = spec[name]
            pool = values + [real[name]] if name in real else values
            if rng.random() < 0.25:
                pool = HOSTILE
            params.setdefault(rng.choice(spellings), []).append(rng.choice(pool))
            if rng.random() < 0.1:  # repeated: the first value of the first spelling counts
                params.setdefault(rng.choice(spellings), []).append(rng.choice(pool))
        cases.append((route, params))
    return cases


def records(df, req) -> list:
    if not (req.score or req.debug):
        df = df.drop(columns=["score"])
    return json.loads(json.dumps(df.to_dict(orient="records"), default=str))


def engine_answers(engine, oracle, cases) -> list[tuple[int, object]]:
    """Each case through ``parse`` and the engine, its hits checked
    against the oracle: (200, hits) or (400, message)."""
    from lighthouse_ray.query.request import AutocompleteRequest, SearchError, SearchRequest

    ranked = {}  # the oracle's whole ranking per query and filter, paged below

    def oracle_page(req, **kw):
        key = tuple(kw.values())
        if key not in ranked:
            ranked[key] = oracle.search(size=10**6, from_=0, **kw)
        return ranked[key][req.from_ : req.from_ + req.size]

    out = []
    for route, params in cases:
        try:
            if route == "/autocomplete":
                req = AutocompleteRequest.parse(params)
                got = engine.autocomplete(req)
                assert got == oracle.autocomplete(req.s, req.size, req.from_, req.nsfw), params
                out.append((200, got))
                continue
            req = SearchRequest.parse(params)
            df = engine.search(req)
        except SearchError as e:
            out.append((400, str(e)))
            continue
        want = oracle_page(
            req, s=req.s, channel=req.channel, channel_id=req.channel_id,
            related_to=req.related_to, sort_by=req.sort_by, content_type=req.content_type,
            media_type=req.media_type, claim_type=req.claim_type, nsfw=req.nsfw,
            free_only=req.free_only, claim_id=req.claim_id,
        )
        ids = df.iloc[:, req.columns().index("claimId")]  # include may repeat it
        assert list(ids) == [w[0] for w in want], params
        np.testing.assert_allclose(df["score"].to_numpy(), [w[1] for w in want],
                                   rtol=1e-9, atol=1e-6, err_msg=str(params))
        out.append((200, records(df, req)))
    return out


def msearch_line(params: dict) -> str:
    """One msearch JSON object for a GET map: a repeated name becomes a
    list, and integer or boolean text its JSON scalar."""
    obj = {}
    for k, v in params.items():
        if len(v) > 1:
            obj[k] = v
        elif v[0].isascii() and v[0].lstrip("-").isdigit() and len(v[0]) < 20:
            obj[k] = int(v[0])
        else:
            obj[k] = {"true": True, "false": False}.get(v[0], v[0])
    return json.dumps(obj)


def answer(status: int, body: bytes) -> tuple[int, object]:
    data = json.loads(body)
    return (status, data["error"]) if status == 400 else (status, data)


@pytest.mark.filterwarnings("ignore:DataFrame columns are not unique")
def test_request_contract_property(corpus):
    from lighthouse_ray.index import IndexReader
    from lighthouse_ray.query import SearchEngine
    from lighthouse_ray.query.http_server import LighthouseHTTPServer

    idx, oracle = corpus
    cases = gen_cases(random.Random(20261019), oracle)
    want = engine_answers(SearchEngine(IndexReader(idx)), oracle, cases)
    statuses = [s for s, _ in want]
    assert len(cases) >= 1000
    assert statuses.count(200) >= 300 and statuses.count(400) >= 300, statuses

    for k, r in [(1, 1), (3, 2)]:
        srv = LighthouseHTTPServer(idx, port=0, num_partitions=k, num_replicas=r).start()
        conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=60)
        try:
            n_get = 0
            for (route, params), exp in zip(cases, want):
                url = route + "?" + urllib.parse.urlencode(params, doseq=True)
                if len(url) > MAX_URL:
                    continue
                conn.request("GET", url)
                resp = conn.getresponse()
                assert answer(resp.status, resp.read()) == exp, (k, r, route, params)
                n_get += 1
            assert n_get >= 1000

            batch = [(c, e) for c, e in zip(cases, want) if c[0] == "/search"]
            assert len(batch) >= 1000
            for i in range(0, len(batch), 200):
                chunk = batch[i : i + 200]
                body = "\n".join(msearch_line(p) for (_route, p), _e in chunk).encode()
                conn.request("POST", "/msearch", body=body)
                resp = conn.getresponse()
                assert resp.status == 200
                items = json.loads(resp.read())["responses"]
                assert len(items) == len(chunk)
                for item, ((_route, params), exp) in zip(items, chunk):
                    got = (400, item["error"]) if item["status"] == 400 else (
                        item["status"], item.get("hits"))
                    assert got == exp, (k, r, params)
        finally:
            conn.close()
            srv.stop()
