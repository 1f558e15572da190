"""Golden guard: canonical JSON output of fixed CLI commands, pinned by hash.

The digests were taken from the package before the integer kernel
replaced Fraction elimination; any change to a verdict, a detail string,
a returned factor or the entry formatting changes a digest.  A deliberate
change of output must update the digest in the same commit and say why.
"""

import contextlib
import hashlib
import io

import pytest

from angulated.cli import main

GOLDEN = [
    ((2, 2, 3), ("verify", "all"),
     "b5b832e3904674d967ad98ec6f02b4d250b1da32d05a49f3387a415c5007e647"),
    ((2, 3, 4), ("verify", "all"),
     "8fc4a5e0df05726c7c494bc3c636cb2d4ca15061ee5c435d3e6baa2436189dcb"),
    ((4, 4, 9), ("angle", "f1", "f3"),
     "e33f1b6d59e80b417f768d0cc962a0cf88168db8123d8d9189d171fa61b84532"),
    ((4, 4, 9), ("ar", "f5"),
     "9530c26ed07dd7068600e0f3cee384b9aec8330358032a02ace6e7e216d6d558"),
    ((4, 4, 9), ("ar", "f9", "--sub", "1,5,9"),
     "ae55f6a213b180dc0f15d1e1ab2cf01ff9d23ca44be8621f55b884cc89fd7274"),
    ((4, 4, 9), ("cover", "f7", "--sub", "1,5,9"),
     "b92acc0cad5b164c3e5508ed25fe3ec5eba63c66fcfc7e28478b2773ce1f102c"),
    ((4, 4, 9), ("dexact", "2", "4"),
     "a168dfca7c56a366e4acbb7e1e4ffa0da891fbf3730285ca80fd71f1b04773e6"),
    ((4, 4, 9), ("compose", "f1", "f2", "f3"),
     "0a7aec1c107a9e8f86f6d28b25c2834c622a5d6c0c0e17dc058a64a47297181b"),
]


@pytest.mark.parametrize(
    "triple, argv, digest",
    GOLDEN,
    ids=[f"{d},{l},{m} {' '.join(a)}" for (d, l, m), a, _ in GOLDEN],
)
def test_stdout_digest(triple, argv, digest):
    d, l, m = triple
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--d", str(d), "--l", str(l), "--m", str(m), *argv])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
