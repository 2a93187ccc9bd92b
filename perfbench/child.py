"""One measured ``spdcsim`` CLI process of the benchmark.

    python3 perfbench/child.py META [--import-only] [--spans SPANS] -- ARGV...

Times ``import spdcsim.cli`` (set-up) and ``spdcsim.cli.main(ARGV)`` (wall)
in this fresh process and writes both, with the library versions it ran
with, to the JSON file META.  With ``--spans`` the layers' public functions
are wrapped for the duration of ``main`` and the recorded spans are written
to SPANS after the wrappers are removed.  ``spdcsim`` must be imported from
the ``src`` directory next to ``perfbench``; otherwise the process exits
with code 4 and writes nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
EXIT_WRONG_PACKAGE = 4

#: (module, attribute) of every traced function.  The span name is the
#: module's last component and the attribute, e.g. ``sampling.raw_words``.
TRACED = (
    ("spdcsim.sampling", "raw_words"),
    ("spdcsim.sampling", "sample_vacuum"),
    ("spdcsim.elements", "parametric_amplify"),
    ("spdcsim.elements", "beam_split"),
    ("spdcsim.elements", "polarizer_project"),
    ("spdcsim.elements", "detector_loss"),
    ("spdcsim.estimators", "jackknife_se"),
    ("spdcsim.estimators", "fourfold_covariance"),
    ("spdcsim.estimators", "mean_intensity"),
    ("spdcsim.estimators", "variance_intensity"),
    ("spdcsim.estimators", "covariance_intensity"),
    ("spdcsim.estimators", "correlation_coefficient"),
    ("spdcsim.estimators", "chsh_coefficient"),
    ("spdcsim.experiments", "run_experiment"),
    ("spdcsim.multimode", "calibrate_gain"),
    ("spdcsim.multimode", "build_kernel"),
    ("spdcsim.multimode", "schmidt_decompose"),
    ("spdcsim.multimode", "image_mean_intensities"),
    ("spdcsim.multimode", "sample_image_planes"),
    ("spdcsim.multimode", "shift_field"),
    ("spdcsim.multimode", "run_hom2d"),
    ("spdcsim.reporting", "emit_results"),
)

#: Work done by one call, computed from its result: 64-bit words drawn, and
#: bytes of field amplitudes handed to the next layer.
WORK = {
    "sampling.raw_words": lambda words: int(words.size),
    "sampling.sample_vacuum": lambda ensemble: int(ensemble.data.nbytes),
}


class Tracer:
    """Records nested spans of wrapped functions, one span stack per thread.

    A span is ``[name, start, end, parent, work]`` where ``parent`` is the
    index of the enclosing span on the same thread, or None.
    """

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []

    def wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[4] = work(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in the package.

        Modules bind functions by name at import, so the wrapper is set in
        every ``spdcsim`` module whose namespace holds the original object.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if name == "spdcsim" or name.startswith("spdcsim.")]
        for module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(f"{module_name.rsplit('.', 1)[-1]}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        """Put every original function back where :meth:`install` found it."""
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

    def calls(self) -> dict:
        counts = {}
        for span in self.spans:
            counts[span[0]] = counts.get(span[0], 0) + 1
        return counts


def _parse(argv):
    """Own options before ``--``; the program's argument vector after it."""
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("meta")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv[:split])
    args.program = argv[split + 1:]
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    start = time.perf_counter()
    import spdcsim.cli
    setup_s = time.perf_counter() - start
    if not Path(spdcsim.cli.__file__).resolve().is_relative_to(SRC):
        print(f"spdcsim imported from {spdcsim.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return EXIT_WRONG_PACKAGE

    meta = {"setup_s": setup_s, "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": getattr(sys.modules.get("scipy"), "__version__", None)}
    returncode = 0
    if not args.import_only:
        tracer = Tracer() if args.spans else None
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            returncode = spdcsim.cli.main(args.program)
        finally:
            meta["wall_s"] = time.perf_counter() - start
            if tracer:
                tracer.uninstall()
        if tracer:
            Path(args.spans).write_text(json.dumps(
                {"spans": tracer.spans, "calls": tracer.calls()}))
    Path(args.meta).write_text(json.dumps(meta))
    return returncode


if __name__ == "__main__":
    sys.exit(main())
