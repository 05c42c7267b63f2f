"""scripts/range_sweep.py scores one pair under a sweep of fixed L values;
its printed table must not move."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

EXPECTED = """\
joint range L = 1.2000
           L      ssim   psnr[dB]
         0.6    0.9026      9.156
         1.2    0.9151     15.176
         2.4    0.9359     21.197
          12    0.9663     35.176
         120    0.9850     55.176
     1.2e+06    1.0000    135.176

same images every row; only the fixed L moved the scores
"""


def test_range_sweep_output():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / "range_sweep.py")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == EXPECTED
