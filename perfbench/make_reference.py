"""Regenerate reference_noisy_sweep.json: value_conv of the first ops of the
`noisy_sweep` workload at its reference seed, in op order.

value_conv is the noisy preparation's conventional witness value; it does
not depend on how the measurement circuit is decomposed, so it stays fixed
while the simulation is optimized.

    python3 perfbench/make_reference.py
"""

import json
import sys

import numpy as np

import source

OPS = 32


def main() -> int:
    source.pin_blas_threads()
    if not source.use_source_tree():
        print(f"error: no sedwitness package source under {source.SRC}", file=sys.stderr)
        return 2
    import workloads

    source.OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.NoisySweep(source.OUT_DIR, seed=-1)
    rng = np.random.default_rng(wl.reference_seed)
    values = []
    while len(values) < OPS:
        for inp in wl.block(rng):
            out = wl.op(None, inp)
            problem = wl.check(None, inp, out, len(values))
            if problem:
                print(f"op {len(values)}: {problem}", file=sys.stderr)
                return 1
            values.append([r["value_conv"] for r in out["records"]])
    doc = {"seed": wl.reference_seed, "n": wl.n, "value_conv": values}
    wl.reference_path.write_text(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
