"""x01 evidence: fresh-process builds at num_cpus=8 and num_cpus=32 over
the same corpus must produce byte-identical segments (per-shard sha256)
and identical doc-store lineage digests.

Each run's ``stages.postings.digest`` (sha256 over every postings spill
file's sha256) is printed but not compared: the payload-file layout, and
so the spill files, follow the block count.  It lets two checkouts be
diffed at the same CPU count.

Usage: python scripts/check_determinism.py [n_docs]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

CHILD = r"""
import json, shutil, sys
import ray
ncpu = int(sys.argv[1]); corpus = sys.argv[2]; out = sys.argv[3]
ray.init(address="local", num_cpus=ncpu, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from lighthouse_ray.build import build_index
from lighthouse_ray.config import IndexConfig
shutil.rmtree(out, ignore_errors=True)
res = build_index(corpus, out, IndexConfig(num_doc_parts=32, num_term_shards=64))
m = res.manifest
print(json.dumps({
    "shards": {k: v["sha256"] for k, v in m["stages"]["segments"]["shards"].items()},
    "digests": m["stages"]["docstore"]["digests"],
    "postings_digest": m["stages"]["postings"]["digest"],
    "n_docs": res.n_docs,
}))
ray.shutdown()
"""


def main() -> int:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from lighthouse_ray.corpus import write_corpus_parallel

    corpus = f"/tmp/lighthouse_det_corpus_{n_docs}"
    write_corpus_parallel(corpus, n_docs)
    ray.shutdown()

    results = {}
    for ncpu in (8, 32):
        out = subprocess.run(
            [sys.executable, "-c", CHILD, str(ncpu), corpus, f"/tmp/lighthouse_det_idx_{ncpu}"],
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        ).stdout
        results[ncpu] = json.loads(out.strip().splitlines()[-1])

    digests = {n: r.pop("postings_digest") for n, r in results.items()}
    a, b = results[8], results[32]
    ok = a == b
    n_shards = len(a["shards"])
    print(json.dumps({
        "identical": ok,
        "n_docs": a["n_docs"],
        "n_shards_compared": n_shards,
        "docstore_digests_equal": a["digests"] == b["digests"],
        "postings_digest": {str(n): d for n, d in digests.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
