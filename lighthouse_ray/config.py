"""Index build configuration.

Values are sized so the same plan works from the pytest fixtures (1k
docs, 4 CPUs) up to a multi-node cluster: ``num_doc_parts`` and
``num_term_shards`` are *content-addressed* partition counts fixed in
the config — never derived from the CPU count — so ordinals, shard
layout and therefore top-k results are identical at any parallelism
(fixture x01, SURVEY.md §7.3 determinism requirement).
"""

from __future__ import annotations

from dataclasses import dataclass, field


# Indexed full-text fields and their document-source columns.
# Analog of the reference's dynamically-mapped text fields
# (app/es/index/claims.go:9-32): name <- basename(path), title <- path,
# channel <- repo, content <- file body (the `description` analog).
FIELDS = ("name", "title", "channel", "content")


# bump when the on-disk segment/docstore layout changes: readers refuse
# mismatched indexes and cached builds are keyed by this
FORMAT_VERSION = 6


@dataclass
class IndexConfig:
    # partitioning (content-addressed, parallelism-independent)
    num_doc_parts: int = 32          # doc-store partitions; at 100 TB: O(50k)
    num_term_shards: int = 64        # posting segment shards; at 100 TB: O(100k)

    # BM25 (ES 6.x defaults, reference app/es/index/claims.go:9-32)
    k1: float = 1.2
    b: float = 0.75

    # postings layout
    block_size: int = 128            # postings per block-max block

    # hot-term salting (SURVEY.md §4 skew row): terms whose estimated df
    # exceeds hot_df_ratio * N get their posting lists split by ordinal
    # range (salt buckets of salt_range docs each) across shards.
    hot_df_ratio: float = 0.10
    salt_range: int = 1 << 16        # docs per salt bucket
    df_sample_mod: int = 50          # 1/50 of docs sampled for df estimation

    # doclen rows are routed to negative shards bucketed by ordinal range
    # (one doclens file per 2^dl_shift docs), merged in the same shuffle
    # pass as the postings — no separate stats scan over the postings.
    dl_shift: int = 16

    # term-shard exchange: shards are bucketed into num_shard_groups
    # groups (grp = shard mod G, negatives wrapped); the tokenize stage
    # spills each batch's postings into per-group files and the merge
    # runs one task per group — an explicit disk-partitioned shuffle
    # with no all-to-all object-store sort.  None (default) resolves to
    # num_term_shards (one group per shard: best reduce balance); set
    # lower to bound spill-file counts when payload files x shards is
    # large.
    num_shard_groups: int | None = None

    @property
    def shard_groups(self) -> int:
        return self.num_shard_groups or self.num_term_shards

    # ordmap exchange: finalize tasks spill winner-row ordinal info per
    # payload-file GROUP; one compact task per group then writes one
    # sidecar per payload file.  File ops are O(P x G + F), never F x P.
    # Size G to a few x cores at cluster scale.
    ordmap_groups: int = 16

    # execution sizing
    tokenize_batch_size: int = 1024  # docs per tokenize batch (drop for MB-scale payloads)

    # delete-route Spent/Expired docs at build (chainquery.go:127-132);
    # disable for corpora without upsert/delete semantics
    route_deletes: bool = True

    # remove exchange scratch (postings/docmeta spills, df sample) after
    # a fully-recorded build; queries never read them and at scale they
    # roughly double the on-disk footprint.  Disable to inspect spills.
    cleanup_spills: bool = True

    # frozen "now" for time-decay scoring fixtures (FIXTURES.md §1)
    now_ts: int = 1_767_225_600      # 2026-01-01T00:00:00Z

    # test-only knobs: {"fail_files": [...]} injects a tokenize failure
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "num_doc_parts": self.num_doc_parts,
            "num_term_shards": self.num_term_shards,
            "k1": self.k1,
            "b": self.b,
            "block_size": self.block_size,
            "hot_df_ratio": self.hot_df_ratio,
            "salt_range": self.salt_range,
            "df_sample_mod": self.df_sample_mod,
            "dl_shift": self.dl_shift,
            "num_shard_groups": self.num_shard_groups,
            "ordmap_groups": self.ordmap_groups,
            "route_deletes": self.route_deletes,
            "now_ts": self.now_ts,
            "extra": self.extra,
        }

    @classmethod
    def from_json(cls, d: dict) -> "IndexConfig":
        return cls(**{k: v for k, v in d.items() if k in cls.__dataclass_fields__})
