"""IR-listing digest corpus: the compiler-identity gate.

The corpus records, for a fixed set of compile requests, the sha256 of
every kernel's ``to_ptx()`` listing plus its ``reg_count``.  A compiler
refactor that must not change generated code (an optimizer rewrite, a
faster pass) recompiles the corpus and demands byte equality.

The requests are what ``nvcc`` actually receives on the paper-shaped
workloads:

* the three ``tests/test_autotune.py::APP_GRIDS`` exhaustive sweeps,
  run once per device model (so every arch a device uses appears);
* the ``benchmarks/bench_ablation.py`` RE / SK -O1 / SK -O3 rows;
* a seeded slice of the ``tests/test_fuzz_kernels.py`` and
  ``tests/test_fuzz_expressions.py`` generators, at every opt level;
* a few kernels holding NaN constants (:data:`NAN_SOURCES`).

Each entry stores its source (deduplicated by digest), so the corpus
stays valid when app sources change.  Usage::

    PYTHONPATH=src:. python -m tests.ir_corpus record   # rewrite corpus
    PYTHONPATH=src:. python -m tests.ir_corpus check    # every entry

``record`` is only meaningful on a compiler whose output is known to be
right; ``check`` exits non-zero listing every entry that differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from typing import Dict, List

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "ir_corpus.json")

#: The arch the tier-1 subset checks per app (the full corpus covers
#: every arch).  Spread so tier-1 still touches all three generations.
TIER1_ARCH = {"piv": "sm_13", "template_matching": "sm_20",
              "backprojection": "sm_35"}

FUZZ_KERNEL_SEEDS = range(10)
FUZZ_EXPR_SEEDS = range(24)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def listing_digests(request: dict, source: str) -> Dict[str, dict]:
    """Compile one corpus request; kernel name -> digest and reg_count."""
    from repro.kernelc.compiler import nvcc
    module = nvcc(source, defines=request["defines"],
                  arch=request["arch"], opt_level=request["opt_level"],
                  unroll=request["unroll"])
    return {name: {"ptx_sha256": _sha(k.to_ptx()),
                   "reg_count": k.reg_count}
            for name, k in sorted(module.kernels.items())}


# ----------------------------------------------------------------------
# Capturing requests


class _Capture:
    """Records every distinct request ``nvcc`` receives while active."""

    def __init__(self):
        self.sources: Dict[str, str] = {}
        self.requests: List[dict] = []
        self._seen = set()

    def add(self, group, source, defines, arch, opt_level, unroll):
        sha = _sha(source)[:16]
        self.sources[sha] = source
        request = {"group": group, "arch": arch, "source": sha,
                   "defines": dict(sorted((defines or {}).items())),
                   "opt_level": opt_level, "unroll": bool(unroll)}
        key = json.dumps(request, sort_keys=True)
        if key not in self._seen:
            self._seen.add(key)
            self.requests.append(request)

    def hook(self, group):
        import repro.kernelc.compiler as compiler
        original = compiler._nvcc_impl
        capture = self

        def recording(source, defines, arch, opt_level, headers, unroll,
                      max_unroll):
            assert not headers, "corpus requests carry no headers"
            capture.add(group, source, defines, arch, opt_level, unroll)
            return original(source, defines, arch, opt_level, headers,
                            unroll, max_unroll)

        class _Hooked:
            def __enter__(self):
                compiler._nvcc_impl = recording

            def __exit__(self, *exc):
                compiler._nvcc_impl = original

        return _Hooked()


def _app_sweeps(capture: _Capture) -> None:
    from repro.gpusim.device import DEVICES
    from repro.tuning import harness_sweep
    from tests.test_autotune import APP_GRIDS
    for app, (problem, axes) in sorted(APP_GRIDS.items()):
        for device in sorted(DEVICES):
            with capture.hook(app):
                harness_sweep(app, problem, axes, device=device, seed=11,
                              memory_bytes=8 << 20)


def _ablation(capture: _Capture) -> None:
    from benchmarks.bench_ablation import VARIANTS, _sk_defines
    from repro.apps.piv.host import RB_MAX
    from repro.apps.piv.kernels import TREE_SRC
    for _label, defines, options in VARIANTS:
        defines = dict(defines) if defines is not None else _sk_defines()
        defines.setdefault("RB_MAX", RB_MAX)
        for arch in ("sm_13", "sm_20", "sm_35"):
            capture.add("ablation", TREE_SRC, defines, arch,
                        options["opt_level"], options["unroll"])


def _random_tree(rng: random.Random, depth: int):
    """A seeded draw from ``test_fuzz_expressions.exprs(depth)``."""
    from tests.test_fuzz_expressions import VARS, Node
    kind = rng.choice(["binop", "shift", "divmod", "unop", "leaf"]
                      if depth else ["leaf"])
    if kind == "leaf":
        if rng.random() < 0.5:
            return Node("lit", value=rng.randint(-100, 100))
        return Node("var", var=rng.choice(VARS))
    if kind == "binop":
        op = rng.choice(["+", "-", "*", "&", "|", "^", "min", "max"])
        return Node(op, _random_tree(rng, depth - 1),
                    _random_tree(rng, depth - 1))
    if kind == "shift":
        return Node(rng.choice(["<<", ">>"]), _random_tree(rng, depth - 1),
                    Node("lit", value=rng.randint(0, 7)))
    if kind == "divmod":
        return Node(rng.choice(["/", "%"]), _random_tree(rng, depth - 1),
                    Node("lit", value=rng.randint(1, 64)))
    return Node(rng.choice(["neg", "not"]), _random_tree(rng, depth - 1))


def _fuzz(capture: _Capture) -> None:
    import numpy as np
    from tests.test_fuzz_kernels import _gen_kernel
    for seed in FUZZ_KERNEL_SEEDS:
        src = _gen_kernel(np.random.default_rng(seed))[0]
        for arch in ("sm_13", "sm_20", "sm_35"):
            for opt in (1, 2, 3):
                capture.add("fuzz_kernels", src, {}, arch, opt, True)
    for seed in FUZZ_EXPR_SEEDS:
        rng = random.Random(seed)
        expr = _random_tree(rng, 3).render()
        re_src = ("__global__ void k(int* out, int va, int vb, int vc) "
                  f"{{\n    out[0] = {expr};\n}}\n")
        sk_src = ("__global__ void k(int* out, int va_, int vb_, "
                  "int vc_) {\n    int va = VA; int vb = VB; "
                  f"int vc = VC;\n    out[0] = {expr};\n}}\n")
        values = {"VA": rng.randint(-1000, 1000),
                  "VB": rng.randint(-1000, 1000),
                  "VC": rng.randint(-1000, 1000)}
        for opt in (1, 2, 3):
            capture.add("fuzz_expressions", re_src, {}, "sm_20", opt, True)
            capture.add("fuzz_expressions", sk_src, values, "sm_20", opt,
                        True)


#: Kernels holding NaN constants, which equal nothing (themselves
#: included): the folder must still reach its fixpoint on them.
NAN_SOURCES = [
    ("__global__ void k(float* o) {\n    float q = 0.0f / 0.0f;\n"
     "    o[0] = q;\n}\n", {}),
    ("__global__ void k(float* o) {\n    float x = X;\n"
     "    o[threadIdx.x] = x / x;\n}\n", {"X": "0.0f"}),
    ("__global__ void k(float* o, int n) {\n    float q = 0.0f / 0.0f;\n"
     "    float r;\n    if (n > 0) r = q + 1.0f; else r = q;\n"
     "    o[0] = r + q;\n}\n", {}),
    ("__global__ void k(float* o, int n) {\n    float q = 0.0f / 0.0f;\n"
     "    float s = 0.0f;\n    for (int i = 0; i < n; i++) {\n"
     "        s += q;\n        o[i] = q;\n    }\n    o[n] = s;\n}\n", {}),
    ("__global__ void k(float* o) {\n    float q = 0.0f / 0.0f;\n"
     "    float s = 0.0f;\n    for (int i = 0; i < 4; i++) s += q * i;\n"
     "    o[0] = q == q ? s : -s;\n}\n", {}),
]


def _nan_constants(capture: _Capture) -> None:
    for src, defines in NAN_SOURCES:
        for opt in (1, 2, 3):
            for unroll in (False, True):
                capture.add("nan_constants", src, defines, "sm_20", opt,
                            unroll)


def record(path: str = CORPUS_PATH) -> dict:
    """Capture every request, compile it, and write the corpus."""
    capture = _Capture()
    _app_sweeps(capture)
    _ablation(capture)
    _fuzz(capture)
    _nan_constants(capture)
    entries = []
    for request in capture.requests:
        entry = dict(request)
        entry["kernels"] = listing_digests(request,
                                           capture.sources[request["source"]])
        entries.append(entry)
    corpus = {"sources": dict(sorted(capture.sources.items())),
              "entries": entries}
    with open(path, "w") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return corpus


# ----------------------------------------------------------------------
# Checking


def load(path: str = CORPUS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def tier1_entries(corpus: dict) -> List[dict]:
    """One arch per app, plus every ablation and fuzz entry."""
    return [e for e in corpus["entries"]
            if TIER1_ARCH.get(e["group"], e["arch"]) == e["arch"]]


def mismatches(corpus: dict, entries: List[dict]) -> List[str]:
    """Describe every entry whose listings differ from the corpus."""
    bad = []
    for entry in entries:
        got = listing_digests(entry, corpus["sources"][entry["source"]])
        if got != entry["kernels"]:
            bad.append(f"{entry['group']} {entry['arch']} "
                       f"-O{entry['opt_level']} unroll={entry['unroll']} "
                       f"source={entry['source']} "
                       f"defines={entry['defines']}")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("action", choices=["record", "check"])
    args = parser.parse_args(argv)
    if args.action == "record":
        corpus = record()
        print(f"recorded {len(corpus['entries'])} requests, "
              f"{len(corpus['sources'])} sources -> {CORPUS_PATH}")
        return 0
    corpus = load()
    entries = corpus["entries"]
    bad = mismatches(corpus, entries)
    for line in bad:
        print("MISMATCH", line)
    print(f"{len(entries) - len(bad)}/{len(entries)} requests identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
