"""One benchmark worker: a fresh process that runs a single flyswarm command.

Usage: python3 perfbench/worker.py REQUEST.json

The request names the checkout root, the mode (``cli`` calls
``flyswarm.cli.main``; ``traced`` runs the same command through the
traced runner in ``traced.py``), the command spec and the path of the
result file. The clock starts before ``import flyswarm``. Standard
output is replaced by a recorder that timestamps every line as it is
written, so the warning lines give the per-generation and per-frame
intervals without changing what the command prints.
"""

import time

T0 = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


class LineClock(io.TextIOBase):
    """Text sink that keeps each complete line and the time it ended."""

    def __init__(self):
        self.lines: list[str] = []
        self.times: list[float] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        now = time.perf_counter() - T0
        self._partial += s
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append(line)
            self.times.append(now)
        return len(s)


def cli_argv(spec: dict) -> list[str]:
    argv = [spec["command"], "--left", spec["left"], "--right", spec["right"]]
    argv += ["--out", spec["out"], "--seed", str(spec["seed"]), "--generations", str(spec["generations"])]
    return argv


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, str(Path(request["root"]) / "src"))
    clock = LineClock()
    real_stdout, sys.stdout = sys.stdout, clock
    result: dict = {}
    try:
        if request["mode"] == "cli":
            from flyswarm.cli import main as flyswarm_main

            t_call = time.perf_counter() - T0
            code = flyswarm_main(cli_argv(request["spec"]))
        else:
            import traced

            t_call = time.perf_counter() - T0
            result["trace"] = traced.run(request["spec"])
            code = 0
        t_return = time.perf_counter() - T0
    finally:
        sys.stdout = real_stdout
    import flyswarm

    result.update(
        code=code,
        lines=clock.lines,
        times=clock.times,
        t_call=t_call,
        t_return=t_return,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        flyswarm_file=flyswarm.__file__,
    )
    Path(request["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
