"""GPU-PF framework tests: parameters, resources, actions, phases."""

import numpy as np
import pytest

from repro.gpupf import KernelCache, Pipeline, PipelineError
from repro.gpupf.params import Schedule, StepParam
from repro.gpusim import GPU, TESLA_C2070
from repro.kernelc.templates import ctrt_block

SCALE_SRC = ctrt_block({"FACTOR": "factor"}) + """
__global__ void scale(const float* in, float* out, int n, int factor) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) out[i] = in[i] * (float)FACTOR_VAL;
}
"""


@pytest.fixture
def gpu():
    return GPU(TESLA_C2070)


def build_scale_pipeline(gpu, cache=None, specialize=True):
    pipe = Pipeline(gpu, "scale", cache=cache or KernelCache())
    n = pipe.int_param("n", 256)
    factor = pipe.int_param("factor", 3)
    extent = pipe.extent_param("buf", (256,), 4)
    extent.derive_from([n], lambda k: ((k,), 4))
    defines = {"CT_FACTOR": 1, "FACTOR": factor} if specialize else {}
    mod = pipe.module("mod", SCALE_SRC, defines=defines)
    k = pipe.kernel("scale", mod)
    h_in = pipe.host_memory("h_in", extent)
    h_out = pipe.host_memory("h_out", extent)
    d_in = pipe.global_memory("d_in", extent)
    d_out = pipe.global_memory("d_out", extent)
    grid = pipe.triplet_param("grid", (2, 1, 1))
    block = pipe.triplet_param("block", (128, 1, 1))
    pipe.copy("upload", h_in, d_in)
    pipe.kernel_exec("run", k, grid, block, [d_in, d_out, n, factor])
    pipe.copy("download", d_out, h_out)
    return pipe


class TestPhases:
    def test_specification_allocates_nothing(self, gpu):
        build_scale_pipeline(gpu)
        assert not gpu.gmem.allocations

    def test_refresh_realizes_everything(self, gpu):
        pipe = build_scale_pipeline(gpu)
        touched = pipe.refresh()
        assert touched == len(pipe.resources)
        assert len(gpu.gmem.allocations) == 2
        assert pipe.resources["scale"].compiled is not None

    def test_second_refresh_is_noop(self, gpu):
        pipe = build_scale_pipeline(gpu)
        pipe.refresh()
        assert pipe.refresh() == 0

    def test_parameter_change_refreshes_subgraph(self, gpu):
        pipe = build_scale_pipeline(gpu)
        pipe.refresh()
        pipe.set_param("factor", 5)
        touched = pipe.refresh()
        # module + kernel recompile; memories (driven by n) do not.
        assert touched == 2

    def test_extent_change_reallocates(self, gpu):
        pipe = build_scale_pipeline(gpu)
        pipe.refresh()
        before = pipe.resources["d_in"].addr
        pipe.set_param("n", 512)
        pipe.refresh()
        assert pipe.resources["d_in"].addr != before
        assert pipe.resources["h_in"].array.size == 512

    def test_end_to_end_result(self, gpu):
        pipe = build_scale_pipeline(gpu)
        pipe.refresh()
        rng = np.random.default_rng(0)
        data = rng.random(256).astype(np.float32)
        pipe.resources["h_in"].array[:] = data
        pipe.run(1)
        np.testing.assert_allclose(pipe.resources["h_out"].array,
                                   data * 3.0, rtol=1e-6)

    def test_respecialization_changes_result(self, gpu):
        pipe = build_scale_pipeline(gpu)
        data = np.ones(256, np.float32)
        pipe.refresh()
        pipe.resources["h_in"].array[:] = data
        pipe.run(1)
        pipe.set_param("factor", 7)
        pipe.run(1)
        np.testing.assert_allclose(pipe.resources["h_out"].array, 7.0)

    def test_log_has_refresh_and_iteration_lines(self, gpu):
        pipe = build_scale_pipeline(gpu)
        pipe.run(2)
        text = "\n".join(pipe.log)
        assert "refresh: ModuleResource" in text
        assert "regs" in text
        assert "iter 0: run" in text
        assert "iter 1: download" in text


class TestCache:
    def test_recompilation_hits_cache(self, gpu):
        cache = KernelCache()
        pipe = build_scale_pipeline(gpu, cache=cache)
        pipe.refresh()
        assert cache.misses == 1
        pipe.set_param("factor", 9)
        pipe.refresh()
        assert cache.misses == 2
        pipe.set_param("factor", 3)  # back to a seen value
        pipe.refresh()
        assert cache.misses == 2
        assert cache.hits >= 1

    def test_disk_cache_roundtrip(self, gpu, tmp_path):
        cache1 = KernelCache(disk_dir=str(tmp_path))
        pipe1 = build_scale_pipeline(gpu, cache=cache1)
        pipe1.refresh()
        assert cache1.misses == 1
        cache2 = KernelCache(disk_dir=str(tmp_path))
        pipe2 = build_scale_pipeline(GPU(TESLA_C2070), cache=cache2)
        pipe2.refresh()
        assert cache2.misses == 0 and cache2.hits == 1

    def test_cache_key_separates_arch(self, gpu):
        cache = KernelCache()
        m1 = cache.compile(SCALE_SRC, arch="sm_13")
        m2 = cache.compile(SCALE_SRC, arch="sm_20")
        assert m1 is not m2
        assert cache.misses == 2

    def test_cache_key_carries_compiler_fingerprint(self, monkeypatch):
        from repro.gpupf import cache as cache_mod
        before = cache_mod.cache_key(SCALE_SRC, None, "sm_20", 3)
        fingerprint = cache_mod.compiler_fingerprint()
        assert len(fingerprint) == 64
        assert cache_mod.compiler_fingerprint() is fingerprint  # memoized
        monkeypatch.setattr(cache_mod, "_FINGERPRINT", "another-compiler")
        assert cache_mod.cache_key(SCALE_SRC, None, "sm_20", 3) != before

    def test_disk_entry_from_another_compiler_misses(self, tmp_path,
                                                     monkeypatch):
        from repro.gpupf import cache as cache_mod
        monkeypatch.setattr(cache_mod, "_FINGERPRINT", "old-compiler")
        old = KernelCache(disk_dir=str(tmp_path))
        old.compile(SCALE_SRC)
        assert old.misses == 1 and len(list(tmp_path.iterdir())) == 1
        monkeypatch.setattr(cache_mod, "_FINGERPRINT", "new-compiler")
        new = KernelCache(disk_dir=str(tmp_path))
        new.compile(SCALE_SRC)
        assert (new.hits, new.misses) == (0, 1)
        # The same compiler still hits its own entry.
        again = KernelCache(disk_dir=str(tmp_path))
        again.compile(SCALE_SRC)
        assert (again.hits, again.misses) == (1, 0)

    def test_stats_reports_corrupt_counter(self):
        cache = KernelCache()
        assert cache.stats() == {"hits": 0, "misses": 0, "corrupt": 0,
                                 "latch_timeouts": 0}

    def test_concurrent_same_key_compiles_once(self):
        # Single-flight: 8 threads racing one key produce exactly one
        # nvcc run; the other 7 wait on the latch and take hits.
        import threading
        cache = KernelCache()
        barrier = threading.Barrier(8)
        modules = []

        def worker():
            barrier.wait()
            modules.append(cache.compile(SCALE_SRC,
                                         defines={"CT_FACTOR": 1,
                                                  "FACTOR": 3}))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(modules) == 8
        assert all(m is modules[0] for m in modules)
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 7

    def test_concurrent_distinct_keys_all_compile(self):
        import threading
        cache = KernelCache()
        barrier = threading.Barrier(6)
        results = {}

        def worker(factor):
            barrier.wait()
            results[factor] = cache.compile(
                SCALE_SRC, defines={"CT_FACTOR": 1, "FACTOR": factor})

        threads = [threading.Thread(target=worker, args=(f,))
                   for f in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 6
        assert len({id(m) for m in results.values()}) == 6
        assert cache.stats()["misses"] == 6

    def test_corrupt_disk_entry_quarantined(self, gpu, tmp_path):
        cache1 = KernelCache(disk_dir=str(tmp_path))
        cache1.compile(SCALE_SRC)
        (entry,) = tmp_path.glob("*.mod")
        entry.write_bytes(b"\x00garbage" * 4)

        cache2 = KernelCache(disk_dir=str(tmp_path))
        module = cache2.compile(SCALE_SRC)
        assert module is not None
        stats = cache2.stats()
        assert stats["corrupt"] == 1
        assert stats["misses"] == 1  # recompiled after quarantine
        assert list(tmp_path.glob("*.mod.corrupt"))
        # The entry was rewritten in place: a third cache loads clean.
        cache3 = KernelCache(disk_dir=str(tmp_path))
        cache3.compile(SCALE_SRC)
        assert cache3.stats() == {"hits": 1, "misses": 0, "corrupt": 0,
                                  "latch_timeouts": 0}

    def test_legacy_version_entry_quarantined(self, gpu, tmp_path):
        import pickle
        cache1 = KernelCache(disk_dir=str(tmp_path))
        module = cache1.compile(SCALE_SRC)
        (entry,) = tmp_path.glob("*.mod")
        # A structurally valid pickle from an older format version must
        # be quarantined, not unpickled into the running process.
        entry.write_bytes(pickle.dumps((1, module)))

        cache2 = KernelCache(disk_dir=str(tmp_path))
        cache2.compile(SCALE_SRC)
        stats = cache2.stats()
        assert stats["corrupt"] == 1 and stats["misses"] == 1
        assert list(tmp_path.glob("*.mod.corrupt"))


class TestSchedulesAndSteps:
    def test_schedule_period_and_delay(self, gpu):
        s = Schedule("s", period=3, delay=2)
        fired = [i for i in range(10) if s.fires(i)]
        assert fired == [2, 5, 8]

    def test_action_schedule_respected(self, gpu):
        pipe = build_scale_pipeline(gpu)
        pipe.actions["download"].schedule = Schedule("every2", 2, 0)
        pipe.run(4)
        assert pipe.actions["download"].runs == 2
        assert pipe.actions["run"].runs == 4

    def test_step_param_wraps(self, gpu):
        step = StepParam("s", 0, 6, 2)
        values = []
        for _ in range(6):
            values.append(step.value)
            step.advance()
        assert values == [0, 2, 4, 0, 2, 4]

    def test_subset_window_streams(self, gpu):
        """A device-resident window advancing over frames (Table 4.3)."""
        pipe = Pipeline(gpu, "stream", cache=KernelCache())
        frames = pipe.extent_param("frames", (4, 8), 4)
        window = pipe.subset_param("window", 0, 8, stride=8)
        h_all = pipe.host_memory("h_all", frames)
        d_all = pipe.global_memory("d_all", frames)
        win = pipe.subset("win", d_all, window)
        out_extent = pipe.extent_param("out", (8,), 4)
        h_out = pipe.host_memory("h_out", out_extent)
        pipe.copy("up", h_all, d_all,
                  schedule=pipe.schedule_param("once", 0, 0))
        pipe.copy("down", win, h_out)
        pipe.refresh()
        data = np.arange(32, dtype=np.float32).reshape(4, 8)
        pipe.resources["h_all"].array[:] = data
        pipe.gpu.gmem.write(d_all.device_address(), data)
        seen = []
        for i in range(4):
            pipe.run(1)
            seen.append(pipe.resources["h_out"].array.copy())
        for i in range(4):
            np.testing.assert_array_equal(seen[i], data[i])


class TestValidation:
    def test_duplicate_name_rejected(self, gpu):
        pipe = Pipeline(gpu, cache=KernelCache())
        pipe.int_param("n", 1)
        with pytest.raises(PipelineError):
            pipe.int_param("n", 2)

    def test_unknown_param_set_rejected(self, gpu):
        pipe = Pipeline(gpu, cache=KernelCache())
        with pytest.raises(PipelineError):
            pipe.set_param("nope", 1)

    def test_exec_before_refresh_fails(self, gpu):
        pipe = build_scale_pipeline(gpu)
        with pytest.raises(Exception):
            pipe.actions["run"].execute(0)

    def test_constant_memory_resource(self, gpu):
        src = """
        __constant__ float taps[4];
        __global__ void k(float* out) {
            out[threadIdx.x] = taps[threadIdx.x];
        }
        """
        pipe = Pipeline(gpu, cache=KernelCache())
        mod = pipe.module("m", src)
        k = pipe.kernel("k", mod)
        cmem = pipe.constant_memory("taps", mod, "taps")
        ext = pipe.extent_param("e", (4,), 4)
        h_taps = pipe.host_memory("h_taps", ext)
        h_out = pipe.host_memory("h_out", ext)
        d_out = pipe.global_memory("d_out", ext)
        pipe.copy("up", h_taps, cmem)
        pipe.kernel_exec("run", k, 1, 4, [d_out])
        pipe.copy("down", d_out, h_out)
        pipe.refresh()
        pipe.resources["h_taps"].array[:] = [1, 2, 3, 4]
        pipe.run(1)
        np.testing.assert_array_equal(pipe.resources["h_out"].array,
                                      [1, 2, 3, 4])


class TestTextureResource:
    def test_pipeline_texture_binding(self, gpu):
        """A GPU-PF texture resource binds and samples end to end."""
        src = """
        texture<float, 2> imgTex;
        __global__ void grab(float* out, int w) {
            int x = threadIdx.x;
            int y = threadIdx.y;
            out[y * w + x] = tex2D(imgTex, (float)x + 0.5f,
                                   (float)y + 0.5f);
        }
        """
        pipe = Pipeline(gpu, "texpipe", cache=KernelCache())
        ext = pipe.extent_param("img", (4, 8), 4)
        mod = pipe.module("m", src)
        k = pipe.kernel("grab", mod)
        h_img = pipe.host_memory("h_img", ext)
        d_img = pipe.global_memory("d_img", ext)
        traits = pipe.array_traits("traits", filter="point",
                                   address="clamp")
        pipe.texture("imgTex", mod, d_img, traits)
        h_out = pipe.host_memory("h_out", ext)
        d_out = pipe.global_memory("d_out", ext)
        pipe.copy("up", h_img, d_img)
        pipe.kernel_exec("run", k, 1, (8, 4), [d_out, 8])
        pipe.copy("down", d_out, h_out)
        pipe.refresh()
        data = np.arange(32, dtype=np.float32).reshape(4, 8)
        pipe.resources["h_img"].array[:] = data
        pipe.run(1)
        np.testing.assert_array_equal(pipe.resources["h_out"].array,
                                      data)

    def test_texture_requires_global_memory(self, gpu):
        src = "texture<float, 2> t;\n__global__ void k(float* o) " \
              "{ o[0] = tex2D(t, 0.5f, 0.5f); }"
        pipe = Pipeline(gpu, cache=KernelCache())
        ext = pipe.extent_param("e", (4, 4), 4)
        mod = pipe.module("m", src)
        h_mem = pipe.host_memory("h", ext)
        pipe.texture("t", mod, h_mem)
        with pytest.raises(Exception, match="global"):
            pipe.refresh()


class TestTimingReport:
    def test_report_structure(self, gpu):
        pipe = build_scale_pipeline(gpu)
        pipe.run(3)
        report = pipe.timing_report()
        assert "per-operation timing (3 iterations)" in report
        assert "runs=3" in report
        assert "KernelExecution" in report
        assert "high-level: kernels" in report
        # Per-action percentages (the x.y% cells) sum to ~100.
        import re
        pcts = [float(m) for m in re.findall(r"(\d+\.\d)%", report)]
        assert sum(pcts) == pytest.approx(100.0, abs=1.0)

    def test_report_before_running(self, gpu):
        pipe = build_scale_pipeline(gpu)
        report = pipe.timing_report()
        assert "0 iterations" in report
