"""Seeded CLI output pinned byte for byte.

Each command's stdout is compared, by SHA-256, with the digest recorded
before the matrix layer moved to bare-value storage (the first eight) or
before the census loops and the m > 1 determinant were folded into the
shared elimination and histogram code (the next five) or before the
irreducibility test, the modulus search and the modulus lift moved onto
the generated kernels (the m >= 3 cases), and its exit code with
the recorded one (`verify --suite strata` exits 1 by design: criterion 4's
containment is false).  A change that alters any seeded output fails here.
The `--jobs 2` cases are skipped on one CPU, where `main` rejects them.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = [
    ("census --p 3 --n 3 --r 1 --samples 300 --seed 7", 0,
     "e51a2f24badc0e35c647ff10b4fedb073a173aa1ebd2185bbb36315a8226cae4"),
    ("census --p 2 --m 2 --n 3 --r 1 --samples 100 --seed 3", 0,
     "8050808d6f9f11e5133fdaef050d160f21b4853980c9b8743dfd89e094316287"),
    ("degenerate --from 1,1,1 --to 3,0,0 --p 3 --m 2 --t 2", 0,
     "598ac1d7ee9355d8b0f4eb13e81c96e90c609166325dec1f654d3a26a32ae836"),
    ("verify --suite snf --samples 20 --seed 11", 0,
     "8aee4edb1d859611134d801c8ba5946933769f9a041845ca3d975a26e24d6e3e"),
    ("verify --suite strata --samples 20 --seed 11", 1,
     "c00b3a06b69cd14c5397577cc83a593b93c9fa3709511b1475814334fdb1f12a"),
    ("verify --suite witt --samples 20 --seed 11", 0,
     "a97076823f6f2c6001814712bb9256fd8b8a0da84dd28d603515b1f783b0178d"),
    ("verify --suite fac --samples 20 --seed 11", 0,
     "8d2ae39e4f5c0c0e50398cbbf78396123e8f8b7784840121e98b546f10005744"),
    ("verify --suite dims --samples 20 --seed 11", 0,
     "4ff230018eb16239d8f7b8d933405a948ba18cd7d1f00888a715316731f45d1b"),
    ("enumerate --tiny", 0,
     "ccc0778b0f06da7e7dd1d7d1542dd67a7430502aababc7e0558f2ee14621ec93"),
    ("enumerate --tiny --jobs 2", 0,
     "ccc0778b0f06da7e7dd1d7d1542dd67a7430502aababc7e0558f2ee14621ec93"),
    ("verify --suite tiny --jobs 2", 0,
     "96cbb1e9adc86e468f5eb4500881f1cbc897ecd04c7c5a9f8a31869fb41c6837"),
    # the same histogram as the --jobs 1 pin above: sharding changes nothing
    ("census --p 3 --n 3 --r 1 --samples 300 --seed 7 --jobs 2", 0,
     "e51a2f24badc0e35c647ff10b4fedb073a173aa1ebd2185bbb36315a8226cae4"),
    # m > 1 and n = 5: the elimination determinant and FULL sampling
    ("verify --suite snf --m 2 --n 5 --samples 20 --seed 11", 0,
     "093fca5f77eea5ab40641f217d6b0b4c7d6d747b6aea476927ff4fb80b799234"),
    # m >= 3: the default modulus search and the lifted modulus Phi
    ("verify --suite witt --p 2 --m 3 --N 3 --samples 20 --seed 11", 0,
     "eb727b3f3e2c87da2c217ede1997c1458c20460c57aa3b3023fd7c097df70608"),
    ("census --p 3 --m 3 --n 2 --r 1 --samples 50 --seed 5", 0,
     "bc3e00db7cf813673181fad024aa24f2a080f2101b3d3b088c3c630d5ef4a2db"),
    ("verify --suite witt --p 3 --m 4 --N 2 --samples 10 --seed 11", 0,
     "91270764fde1fa37661873506c11c8c5c43bc204fa7179de0725a855eb78de46"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_seeded_stdout_is_byte_identical(argv, code, digest):
    if "--jobs 2" in argv and (os.cpu_count() or 1) < 2:
        pytest.skip("--jobs 2 needs two CPUs")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("WITTLAT_SEED", None)
    proc = subprocess.run([sys.executable, "-m", "wittlat.cli", *argv.split()], cwd=ROOT,
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == code, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
