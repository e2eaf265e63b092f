"""Golden report digests: the sha256 of the JSON report of fixed argv.

Changes to the expression kernel must leave every report byte-identical.
The catalog and verify digests were taken before the kernel's hashing and
expansion were reworked, the frac-deriv digests before ``num`` and the
rewriting walks were; a mismatch names the argv whose report changed.  To pin a
deliberate report change, regenerate with ``python tests/test_report_digests.py``
and say in CHANGES.md why the reports moved.
"""

import contextlib
import hashlib
import io
import os

import pytest

from fracsym.cli import main

CATALOG_CASES = ("1.1", "1.2", "1.3", "2.1", "2.2", "2.3", "3.1", "3.2", "3.3")
SCALING_CASES = ("1.2", "1.3", "2.2", "2.3", "3.2", "3.3")

CATALOG_ARGV = (
    [("classify", "--case", c) for c in CATALOG_CASES]
    + [("reduce", "--case", c, "--generator-index", "0") for c in CATALOG_CASES]
    + [("reduce", "--case", c) for c in SCALING_CASES]
)

VERIFY_ARGV = [
    ("verify", "--m", "2", "--n", "3", "--alpha", "generic", "--g", "k*t^b",
     "--xi-t", "-t", "--xi-x", "((1)*(2*alpha - b)/(1) - alpha)*x",
     "--eta", "((2*alpha - b)/(1))*u"),
    ("verify", "--m", "5", "--n", "1", "--alpha", "generic", "--g", "k*t^b",
     "--xi-t", "-t", "--xi-x", "((4)*(2*alpha - b)/(12) - alpha)*x",
     "--eta", "((2*alpha - b)/(12) + (3))*u"),
    ("verify", "--m", "2", "--n", "1", "--alpha", "1/2", "--g", "k",
     "--xi-t", "-t", "--xi-x", "((1)*(2*(1/2))/(3) - (1/2) + (-5))*x",
     "--eta", "((2*(1/2))/(3))*u"),
    ("verify", "--m", "3", "--n", "4", "--alpha", "3/4", "--g", "k*t^b",
     "--xi-t", "-t + (-3/4)", "--xi-x", "((2)*(2*(3/4) - b)/(3) - (3/4))*x",
     "--eta", "((2*(3/4) - b)/(3))*u"),
    ("verify", "--m", "5", "--n", "4", "--alpha", "1/4", "--g", "k*t^b",
     "--xi-t", "0", "--xi-x", "1", "--eta", "0"),
    ("verify", "--m", "3", "--n", "2", "--alpha", "1/3", "--g", "k",
     "--xi-t", "-t + (1/4)", "--xi-x", "((2)*(2*(1/3))/(5) - (1/3))*x",
     "--eta", "((2*(1/3))/(5))*u"),
]

# the oracle workload's design: positive power sums, N = at/dt + 1 from
# 5,001 to 20,001, every alpha of the design
FRAC_DERIV_ARGV = [
    ("frac-deriv", "--expr", "3/2*t^(1)", "--alpha", "1/4", "--at", "0.5"),
    ("frac-deriv", "--expr", "2*t^(3/2) + 5/7*t^(3)", "--alpha", "1/2",
     "--at", "0.5"),
    ("frac-deriv", "--expr", "9/4*t^(1) + 1/3*t^(2) + 8/5*t^(5/2)",
     "--alpha", "3/4", "--at", "1"),
    ("frac-deriv", "--expr", "4/3*t^(5/2)", "--alpha", "1/2", "--at", "1"),
    ("frac-deriv", "--expr", "6/7*t^(2) + 1*t^(3)", "--alpha", "1/4",
     "--at", "1.5"),
    ("frac-deriv", "--expr", "7/2*t^(3/2) + 2/5*t^(2) + 1/6*t^(3)",
     "--alpha", "3/4", "--at", "2"),
]

DIGESTS = {
    'classify --case 1.1':
        '26a81689652bd4f7c63e2a9ca4075af6437b265650f6fea1d99d64192b7d2bc5',
    'classify --case 1.2':
        'fd3ba09722d4d6a7578a47b137107f9d5f58ba91b8de8f4180c0300315d6172a',
    'classify --case 1.3':
        'bfd6b0e33aef46ac5aacdcfc70e2efca8e13218357803163f3239d48c7d9b494',
    'classify --case 2.1':
        '82888960c5b25e3728e1b28e43b19fe700d934964211ccfc6d1333967ce1e430',
    'classify --case 2.2':
        '61aa4ca889dac20a7289474e2117cb035f276473f92fc52631d3d2d7f398017e',
    'classify --case 2.3':
        '9866a56d7644e84d5b4c3950f59db5419669bd75b3a93503934e93d5fc5c0a40',
    'classify --case 3.1':
        'dad7d861c83eba7e3ce3a0a8f1b31929d7d090bd5ebff41825f678c8ef9e08c6',
    'classify --case 3.2':
        '3d81e161a83d9174b8436d02f0faf8acbb489c17bdffc534396110962ae23051',
    'classify --case 3.3':
        'a1a6af5010021a158153d76fa3c985691718921244c5b6c3408a900b9aff5069',
    'reduce --case 1.1 --generator-index 0':
        'eda1d9e7507c555487d79bc15c7a21698bc43d4bfa5b813676797ea280948fc9',
    'reduce --case 1.2 --generator-index 0':
        'e313f2cc0bb0f116da5459721e2441560fd32ae95c6d9f85301ae1c5271c7b20',
    'reduce --case 1.3 --generator-index 0':
        '895b310044247f3816f00a46c0714eba713d62436ba3179875229da5f218d7ab',
    'reduce --case 2.1 --generator-index 0':
        '25340d08b74792c323347dbaf433e462362126a8a69ee300fe98c0310a202ca7',
    'reduce --case 2.2 --generator-index 0':
        '72f9bc8964afea2df744dd77bab77d97bce978dcdc385a36a6493d22bd19a97f',
    'reduce --case 2.3 --generator-index 0':
        '667799e48b99360a4376b65ae6a9f20270f1bcc8b6e372310c99b60df5b350e4',
    'reduce --case 3.1 --generator-index 0':
        '60fae4db22aa9d7b7c408cbeae24f6f774337b3d4a33f901466a2d01d18476ef',
    'reduce --case 3.2 --generator-index 0':
        '24a071f092d0a7ba3b170a93da89bf4de3a09aebd015f68316da386c757d6caf',
    'reduce --case 3.3 --generator-index 0':
        '7b172b794ee5002bd2e57f78d662fcd575cbb6259ebd2d51477bf47699d49545',
    'reduce --case 1.2':
        'aa65d2fa1fecc81b57f2fa4d7b6e94c9433ddfd918abf88f00253822118a5815',
    'reduce --case 1.3':
        'f15d374f5faa3a991e7f3d1d67117132c7305ebabb71743c59424499d70c45ce',
    'reduce --case 2.2':
        'dc4772a15262f137eb3a84378c7c3c743c34a2b1ef7d2102e00770a4fac07246',
    'reduce --case 2.3':
        '536f913310e3e60e3701ef73db65d36a4eb7d5ebee4e28a8d5e12e8a84016cb9',
    'reduce --case 3.2':
        '26fd57cda6eb8e23f0c6c82129d70bbd29ccc8c25afe14b4b93ed3cf3d46290d',
    'reduce --case 3.3':
        '60b78ed33e02fdd35b7fad51c3b1eb2b89001d17103ff6bf4aefcc2cc8e1663c',
    'verify --m 2 --n 3 --alpha generic --g k*t^b --xi-t -t --xi-x ((1)*(2*alpha - b)/(1) - alpha)*x --eta ((2*alpha - b)/(1))*u':
        '0843abda2995ac8bc3f68ffb573689b5e3beacc0fa95dccaa9c037e2201fa812',
    'verify --m 5 --n 1 --alpha generic --g k*t^b --xi-t -t --xi-x ((4)*(2*alpha - b)/(12) - alpha)*x --eta ((2*alpha - b)/(12) + (3))*u':
        'd0d3f28c3c5b164cdb81e9d1e38b319c6824ab566bc9429f3b48943634a403a1',
    'verify --m 2 --n 1 --alpha 1/2 --g k --xi-t -t --xi-x ((1)*(2*(1/2))/(3) - (1/2) + (-5))*x --eta ((2*(1/2))/(3))*u':
        '0d661b9a09f641f18b36b7b9cca0210d5dc4f00ed2465df38c7b3747305b8a53',
    'verify --m 3 --n 4 --alpha 3/4 --g k*t^b --xi-t -t + (-3/4) --xi-x ((2)*(2*(3/4) - b)/(3) - (3/4))*x --eta ((2*(3/4) - b)/(3))*u':
        'f3d48f4575bbd2495e82175a76b89c3b4a50e636ee4636aec693c818f29d6ed4',
    'verify --m 5 --n 4 --alpha 1/4 --g k*t^b --xi-t 0 --xi-x 1 --eta 0':
        '527581048227d9adca8e2c773d0648eabd4cc65b020257540f62eaaa12e66368',
    'verify --m 3 --n 2 --alpha 1/3 --g k --xi-t -t + (1/4) --xi-x ((2)*(2*(1/3))/(5) - (1/3))*x --eta ((2*(1/3))/(5))*u':
        '09af3940a24aff148478aacefd875494b04fdcb45678c0a136504bcbfe3daf3a',
}

FRAC_DERIV_DIGESTS = {
    'frac-deriv --expr 3/2*t^(1) --alpha 1/4 --at 0.5':
        '4ec4617a0442a1c11e5ef2c369978d8556888c8452e2b639139d453212187c06',
    'frac-deriv --expr 2*t^(3/2) + 5/7*t^(3) --alpha 1/2 --at 0.5':
        '0f1ff8858b965d9a410048e8a48d6211c5bae685b49179e5d18c225921719330',
    'frac-deriv --expr 9/4*t^(1) + 1/3*t^(2) + 8/5*t^(5/2) --alpha 3/4 --at 1':
        '7de9a659c0e973609158f837df42968a48d540e49fae4b23f65745c158369620',
    'frac-deriv --expr 4/3*t^(5/2) --alpha 1/2 --at 1':
        'ddfab9aa4666e505137c1d4bf9f4535ac9486986a743ca6e89305d2ed53270f2',
    'frac-deriv --expr 6/7*t^(2) + 1*t^(3) --alpha 1/4 --at 1.5':
        'a6202ee26453a939c6023cb2b29ee4a3a3ebcf60204da938b55e19ed830e5aaa',
    'frac-deriv --expr 7/2*t^(3/2) + 2/5*t^(2) + 1/6*t^(3) --alpha 3/4 --at 2':
        'a82228508bd7fca01e386bc63437427e0dd13ba12154d558643793582b3d7770',
}


def report_digest(argv, tmp_dir) -> str:
    """sha256 of the report, or of the error line when no report is written
    (``reduce --case 1.1 --generator-index 0`` fails before it writes one).

    The report records its ``--out`` path, so every run writes to the same
    relative name inside ``tmp_dir``."""
    out = tmp_dir / "report.json"
    if out.exists():
        out.unlink()
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_dir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            main([*argv, "--out", "report.json"])
    finally:
        os.chdir(cwd)
    payload = out.read_bytes() if out.exists() else err.getvalue().encode()
    return hashlib.sha256(payload).hexdigest()


def _label(argv) -> str:
    return " ".join(argv)


@pytest.mark.parametrize("argv", CATALOG_ARGV + VERIFY_ARGV, ids=_label)
def test_report_is_byte_identical(argv, tmp_path):
    got = report_digest(argv, tmp_path)
    assert got == DIGESTS[_label(argv)], (
        f"report of `fracsym {_label(argv)}` changed")


@pytest.mark.parametrize("argv", FRAC_DERIV_ARGV, ids=_label)
def test_frac_deriv_report_is_byte_identical(argv, tmp_path):
    got = report_digest(argv, tmp_path)
    assert got == FRAC_DERIV_DIGESTS[_label(argv)], (
        f"report of `fracsym {_label(argv)}` changed")


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for argv in CATALOG_ARGV + VERIFY_ARGV + FRAC_DERIV_ARGV:
            digest = report_digest(argv, pathlib.Path(tmp))
            print(f"    {_label(argv)!r}:\n        {digest!r},")
