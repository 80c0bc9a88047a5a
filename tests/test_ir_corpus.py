"""Compiler identity: recompiled listings match the committed corpus.

``tests/ir_corpus.json`` holds the sha256 of every kernel listing and
its ``reg_count`` for the compile requests of the paper-shaped sweeps,
the ablation rows and a seeded fuzz slice (see :mod:`tests.ir_corpus`).
Tier-1 checks one arch per app; ``python -m tests.ir_corpus check``
checks every arch.
"""

import pytest

from tests import ir_corpus

CORPUS = ir_corpus.load()
GROUPS = sorted({e["group"] for e in CORPUS["entries"]})


@pytest.mark.parametrize("group", GROUPS)
def test_listings_byte_identical(group):
    entries = [e for e in ir_corpus.tier1_entries(CORPUS)
               if e["group"] == group]
    assert entries
    assert ir_corpus.mismatches(CORPUS, entries) == []


def test_corpus_covers_every_arch_per_app():
    for app in ir_corpus.TIER1_ARCH:
        archs = {e["arch"] for e in CORPUS["entries"] if e["group"] == app}
        assert archs == {"sm_13", "sm_20", "sm_35"}
