#!/usr/bin/env python3
"""Show how the data-range parameter L alone moves SSIM and PSNR.

One phantom, one fixed distortion (gamma 0.4 then linear 1.2), then the
same pair scored under a sweep of fixed L values. The pair never changes;
only the parameter does.

    python scripts/range_sweep.py
"""

from refmet.distort import gamma_transform, linear_scale
from refmet.metrics import EvalContext, evaluate
from refmet.normalize import DataRangePolicy, resolve_data_range_values
from refmet.phantom import generate_phantom


def main() -> int:
    ref = generate_phantom(1000).image
    test = linear_scale(gamma_transform(ref, 0.4), 1.2)
    joint = resolve_data_range_values(ref.data, test.data, DataRangePolicy.joint())
    print(f"joint range L = {joint:.4f}")
    print(f"{'L':>12}  {'ssim':>8}  {'psnr[dB]':>9}")
    for mult in (0.5, 1.0, 2.0, 10.0, 100.0, 1e6):
        L = joint * mult
        ctx = EvalContext(range_policy=DataRangePolicy.fixed(L))
        s = evaluate("ssim", ref, test, ctx).value
        p = evaluate("psnr", ref, test, ctx).value
        print(f"{L:12.4g}  {s:8.4f}  {p:9.3f}")
    print("\nsame images every row; only the fixed L moved the scores")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
