"""Set-up time of one fresh process: the isobispec import plus the first
family and evaluator build at a workload's grid.

Started by run.py as ``python3 bench/setup_probe.py SRC_DIR CONFIG_JSON``;
prints ``{"setup_s": ...}``.  The clock starts before the package import,
so interpreter start-up is excluded and the import is included.
"""

import json
import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from isobispec import charfn, potential
    from isobispec.harness import RunConfig

    cfg = json.loads(sys.argv[2])
    alpha = complex(*cfg.pop("alpha"))
    fam = RunConfig(**cfg).make_family()
    charfn.make_evaluator(potential.build_potential(fam, alpha))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
