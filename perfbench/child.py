"""One benchmark invocation of the causalcov CLI in a fresh interpreter.

usage: python3 perfbench/child.py SPEC

SPEC is a JSON object written by run.py:

    root        checkout root; the package is imported from root/src
    spawned_at  the parent's time.monotonic() just before it started
                this process
    argv        arguments for causalcov.cli.main, or null for a probe that
                only imports the package and records the environment
    trace       wrap the package's public functions and record spans
    result      path of the JSON file this process writes before exiting

setup_s runs from spawned_at until causalcov.cli is imported, less the
calibration run in between; wall_s from the entry to the return of
causalcov.cli.main, reports written, less the time of the speed samples
taken during the call.  Both clocks are CLOCK_MONOTONIC, which Linux
shares between processes.  calib_s is the time of the calibration kernel
run after NumPy is imported and before causalcov is; probe_s, in an
untraced invocation, the times of the SpeedProbe samples.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib
import inspect
import json
import os
import platform
import resource
import signal
import sys
import threading
import time
import traceback

#: package modules, one benchmark layer each
LAYERS = ("cli", "config", "process", "_rng", "linalg", "bounds", "estimator", "montecarlo")

#: Not wrapped: a replicate builds one generator per call, about 5 x 10^4 calls on
#: a Monte-Carlo workload, and a wrapper there would distort the layer it
#: measures.  Generator setups are counted from noise_block's arguments.
UNWRAPPED = frozenset({"replicate_rng", "mix64"})


class Tracer:
    """Spans and counts at the calls into each layer's public functions.

    A function is wrapped where the calling module looks it up (for
    example causalcov.montecarlo.noise_block), and a class's public methods
    on the class itself.  Spans are (name, start, end, parent) and stay in
    memory until the invocation ends.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._hooks = {
            "process.noise_block": self._on_noise_block,
            "process.paths_from_noise": self._on_paths,
            "montecarlo.run_tail_experiment": self._on_tail,
            "montecarlo.run_identification_experiment": self._on_identification,
            "estimator.least_squares": self._on_least_squares,
            "linalg.CausalOperator.assemble": self._on_assemble,
        }

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn, name: str):
        hook = self._hooks.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            index = len(self.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"causalcov.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or attr in UNWRAPPED:
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith("causalcov."):
                    owner = obj.__module__.rsplit(".", 1)[1]
                    setattr(module, attr, self.wrap(obj, f"{owner}.{attr}"))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                            setattr(obj, meth, self.wrap(fn, f"{layer}.{obj.__name__}.{meth}"))
        # Only the bound layer calls np.linalg.svd, once per dense-statistics
        # pass over an assembled operator; count the calls, do not time them.
        import numpy as np

        svd = np.linalg.svd

        @functools.wraps(svd)
        def counted_svd(*args, **kwargs):
            self._count("bounds.dense_svds")
            return svd(*args, **kwargs)

        np.linalg.svd = counted_svd

    def _on_noise_block(self, a, result) -> None:
        spec, count = a["spec"], a["count"]
        self._count("process.noise_draws", count * spec.effective_horizon * spec.noise_dim)
        self._count("rng.generator_setups", count)

    def _on_paths(self, a, result) -> None:
        w = a["w"]
        self._count("process.path_steps", w.shape[0] * w.shape[1])

    def _on_tail(self, a, result) -> None:
        self._count("montecarlo.replicates", a["R"])

    def _on_identification(self, a, result) -> None:
        self._count("montecarlo.replicates", a["R"])
        self._count("rng.generator_setups", a["R"])

    def _on_least_squares(self, a, result) -> None:
        self._count("estimator.rank_deficient_fits", bool(result.rank_deficient))

    def _on_assemble(self, a, result) -> None:
        op = a["self"]
        self._count("linalg.dense_bytes", (op.d * op.T) * (op.p * op.T) * 8)


def _blas() -> dict:
    """BLAS vendor and thread count as the loaded NumPy reports them."""
    import numpy as np

    info: dict = {"vendor": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "CAUSALCOV_THREADS": os.environ.get("CAUSALCOV_THREADS"),
    }


def calibrate() -> float:
    """Seconds taken by a fixed calibration kernel that runs no causalcov code.

    It does three kinds of work the workloads do: small and mid-size SVDs,
    in-place elementwise passes over a 32 MB array (larger than the
    caches), and a Python loop of 4 x 4 matrix-vector products.  Of the
    kernels tried, this mix tracked the host's speed drift best across the
    workloads.  The array is the largest allocation, and the child holds
    less before causalcov is imported than any invocation's peak, so the
    kernel leaves ru_maxrss alone.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((48, 48))
    mid = rng.standard_normal((256, 256))
    big = rng.standard_normal(1 << 22)
    a = 0.2 * rng.standard_normal((4, 4))
    v = rng.standard_normal(4)
    start = time.perf_counter()
    for _ in range(150):
        np.linalg.svd(small)
    for _ in range(3):
        np.linalg.svd(mid)
    for _ in range(12):
        np.multiply(big, 1.0001, out=big)
        np.add(big, 0.5, out=big)
    x = v
    for _ in range(60000):
        x = a @ x + v
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the host's speed while causalcov.cli.main runs.

    A short fixed kernel of the calibration's three kinds of work (a 32 x 32
    SVD, in-place passes over a 1 MB array, a Python loop of 4 x 4
    matrix-vector products) runs once before the call, every INTERVAL_S
    of wall time during it from a SIGALRM handler, which Python runs in
    the main thread between bytecodes, and once after it.  Its times say
    how fast the host ran during the call, fast swings included, which a
    kernel run only before and after the call misses.
    """

    INTERVAL_S = 0.05

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._small = rng.standard_normal((32, 32))
        self._big = rng.standard_normal(1 << 17)
        self._a = 0.2 * rng.standard_normal((4, 4))
        self._v = rng.standard_normal(4)
        self.times: list[float] = []

    def sample(self, *_) -> None:
        start = time.perf_counter()
        self._np.linalg.svd(self._small)
        for _ in range(3):
            self._np.multiply(self._big, 1.0001, out=self._big)
        x = self._v
        for _ in range(300):
            x = self._a @ x + self._v
        self.times.append(time.perf_counter() - start)

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> float:
        """Disarm the timer; return the seconds the samples took during the call."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        inside = sum(self.times[1:])
        self.sample()
        return inside


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import numpy  # noqa: F401

    calib = calibrate()
    import causalcov.cli as cli

    out: dict = {"setup_s": time.monotonic() - spec["spawned_at"] - calib, "calib_s": calib}
    if spec["argv"] is None:
        out["env"] = environment()
    else:
        tracer = Tracer() if spec["trace"] else None
        probe = None if tracer else SpeedProbe()
        if tracer:
            tracer.install()
        else:
            probe.start()
        start = time.perf_counter()
        try:
            out["exit_code"] = cli.main(spec["argv"])
        except SystemExit as exc:
            out["exit_code"] = exc.code
        except Exception:
            out["exit_code"] = None
            out["error"] = traceback.format_exc()
        out["wall_s"] = time.perf_counter() - start
        if probe:
            out["wall_s"] -= probe.stop()
            out["probe_s"] = probe.times
        if tracer:
            out["spans"] = tracer.spans
            out["counts"] = tracer.counts
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
