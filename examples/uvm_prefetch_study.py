"""UVM prefetching study: object-level vs tensor-level prefetch (Figures 11/12).

Records each model's kernel schedule (which memory objects and which tensors
every kernel touches) with the UVM prefetch advisor, then replays it against
the UVM simulator under three policies (no prefetch, object-level,
tensor-level) with and without memory oversubscription.

Run with:  python examples/uvm_prefetch_study.py [--oversubscription 3.0]
"""

from __future__ import annotations

import argparse

from repro.dlframework.models import MODEL_ABBREVIATIONS, PAPER_MODELS
from repro.gpusim import A100, RTX3060
from repro.tools import UvmPrefetchExecutor
from repro.tools.uvm_prefetch import record_uvm_schedule


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--oversubscription", type=float, default=3.0,
                        help="oversubscription factor for the constrained scenario")
    parser.add_argument("--batch-size", type=int, default=4)
    parser.add_argument("--models", nargs="*", default=list(PAPER_MODELS))
    args = parser.parse_args()

    devices = {"RTX 3060": RTX3060, "A100": A100}
    header = f"{'model':>10} {'device':>9} {'scenario':>22} {'object':>8} {'tensor':>8}"
    print(header)
    print("-" * len(header))
    for model_name in args.models:
        schedule, advisor, _ = record_uvm_schedule(model_name, device="rtx3060",
                                                   batch_size=args.batch_size)
        label = MODEL_ABBREVIATIONS.get(model_name, model_name)
        for device_name, spec in devices.items():
            for factor, scenario in ((1.0, "no oversubscription"),
                                     (args.oversubscription, f"{args.oversubscription:.0f}x oversubscribed")):
                executor = UvmPrefetchExecutor(spec, oversubscription_factor=factor)
                norm = executor.normalized_times(schedule)
                print(f"{label:>10} {device_name:>9} {scenario:>22} "
                      f"{norm['object_level']:8.2f} {norm['tensor_level']:8.2f}")
        print(f"{'':>10} (schedule: {len(schedule)} kernels, "
              f"{advisor.managed_footprint_bytes() / 2**20:.0f} MB of managed objects)")

    print("\nvalues are execution time normalised to the no-prefetch baseline; "
          "< 1.0 means the prefetch policy helps, > 1.0 means it hurts.")


if __name__ == "__main__":
    main()
