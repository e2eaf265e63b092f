"""Golden report digests: the sha256 of the JSON report of fixed argv.

Changes to the expression kernel must leave every report byte-identical;
a mismatch names the argv whose report changed.  To pin a deliberate report
change, run ``python tests/test_report_digests.py``: it prints
``argv: old → new`` for each pin whose report moved, and nothing for the
others.  Copy the new digests in and say in CHANGES.md why the reports
moved.
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

# off K(2,3), on 3m - n - 2 = 0: a t-free scaling with its weight check
DEGENERATE_ARGV = [
    ("classify", "--m", "2", "--n", "4", "--g", "k"),
    ("classify", "--m", "1", "--n", "1", "--g", "k"),
]

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

# the g(t) paths that the catalog argvs leave out: oracle values for k and
# b, the two g-forms that case 3.1 covers besides its own, numeric k*t^b
# off the table, zeta = -1 and a scaling print skipped off K(2,3)
G_PATH_ARGV = [
    ("reduce", "--case", "1.2", "--oracle-b", "1/3", "--oracle-k", "2"),
    ("reduce", "--case", "2.1", "--generator-index", "0",
     "--oracle-b", "-1/2", "--oracle-k", "3"),
    ("classify", "--alpha", "1/3", "--g", "k*(t^2-b)^(1/3)"),
    ("classify", "--alpha", "1/3", "--g", "2*exp(3*t)"),
    ("reduce", "--g", "3*t^2", "--alpha", "1/4"),
    ("reduce", "--g", "t", "--alpha", "1/3"),
    ("reduce", "--case", "2.2", "--zeta", "-1"),
    ("reduce", "--case", "1.3", "--m", "3", "--n", "5"),
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
        'efd576d734236806bfcd84c2d155879d3224e364cb9cd4b9dee66d5deda3a12b',
    'classify --case 1.2':
        '716c087eff83db1778da730444fb42a39718d3908a8ddc6a9c626e2fb1f5b3b4',
    'classify --case 1.3':
        'a41e3c177913a64174404ce3452931019522e02415d2b3ee20b5208694d31319',
    'classify --case 2.1':
        '2ab8f05f45acdfc2ac51c0a8d34b5ab16881f3db81426f11f852bcd606ba42b6',
    'classify --case 2.2':
        '3351104ee1d031edcaed2f7ef168d934ecf485d4ea8255bc4640d5b27d7bc312',
    'classify --case 2.3':
        '3dab95852bea7886f5daf030b88133c80abd088c5a05bac2b4bd6ef8f6360e81',
    'classify --case 3.1':
        '3be4a585d5515cbdc710aff99404a12c00e6ae7d2be017f1af5fa2aa91a22504',
    'classify --case 3.2':
        'e18ce60f04f13c646f5dc4341d4194deb68b3c8f54d3be717587dabbb62c2998',
    'classify --case 3.3':
        'ab7b054c8d2e98dd796e6d15208fed7e321c079409a6102fe2f1447abddc6917',
    'reduce --case 1.1 --generator-index 0':
        '173e602b39df0e01c12a202fe1675b3b48f83163620f1a7742b1b0417046f77f',
    'reduce --case 1.2 --generator-index 0':
        '66a99c4e4bd43bee1bf9b710631526bcb6fa4f82cc7b189ad7c0055e69c31fda',
    'reduce --case 1.3 --generator-index 0':
        '5a55e530e2459bc1301e6e7be734c8ca3951518ba25e31d6dab370405a83fbbe',
    'reduce --case 2.1 --generator-index 0':
        '6b3896af51f6d598be69c35cb3eac08b1656edb959f80e7b7638fe6b8347532d',
    'reduce --case 2.2 --generator-index 0':
        '123aec6bdaba74284fc69609d18ecee24f6e84aeb44ce6ad57bc6b079da5cb16',
    'reduce --case 2.3 --generator-index 0':
        'eabcce2c620b13cca5a58bc36029873c55f0d142d00056bc0640f7a2a7c5c582',
    'reduce --case 3.1 --generator-index 0':
        'c363f306f7fe2555e567ab2b7ed4968ce215c9105267904b6bbafac7721c2bea',
    'reduce --case 3.2 --generator-index 0':
        '4eccd62f4895a5f40898ef8d9b63892e65c3e96d3a87abc91dd182e2c3ddb15e',
    'reduce --case 3.3 --generator-index 0':
        '4b65a94e53af7a6404f28ac1c2a2c8acef04369c80371a161f0a65777bab064b',
    'reduce --case 1.2':
        '2680e671e42691495ff190de8bc799b0e70604bf5435b321d51fba9538ae7eaa',
    'reduce --case 1.3':
        'e6f7af8cc9fff393e5b45714fcbcac82556bdb204f1c1fddf349655e6eeb2969',
    'reduce --case 2.2':
        '0de4a0e5107639235fbecb53772792a97075cbe35edf3983596204a52aaac70c',
    'reduce --case 2.3':
        '0bbb0055ffd36873fde882aa17485c41d00fe6bbf17ef42007a04493689ca9d0',
    'reduce --case 3.2':
        '84e13a9ed91b5d8d3ae583ad44beabd113b6f9cbc76abe4fccffb935a4608cf2',
    'reduce --case 3.3':
        'a0a476f75259d0c51fce9cc16af02d647421bee51fd7b6bb5f0422cc38c62e98',
    'verify --m 2 --n 3 --alpha generic --g k*t^b --xi-t -t --xi-x ((1)*(2*alpha - b)/(1) - alpha)*x --eta ((2*alpha - b)/(1))*u':
        'a2468e63aa12ee8096648dce6b176f80d8772e823f8f94e9669247eeb2e8c16b',
    'verify --m 5 --n 1 --alpha generic --g k*t^b --xi-t -t --xi-x ((4)*(2*alpha - b)/(12) - alpha)*x --eta ((2*alpha - b)/(12) + (3))*u':
        'caabc188813d01de8f3f0164c31d69fd4a9f0e9401d845387a703ae73aff78bf',
    'verify --m 2 --n 1 --alpha 1/2 --g k --xi-t -t --xi-x ((1)*(2*(1/2))/(3) - (1/2) + (-5))*x --eta ((2*(1/2))/(3))*u':
        '052216600e5478135a21f6ba65424b3d909298df5a4e4faff1073f3529cf7be8',
    'verify --m 3 --n 4 --alpha 3/4 --g k*t^b --xi-t -t + (-3/4) --xi-x ((2)*(2*(3/4) - b)/(3) - (3/4))*x --eta ((2*(3/4) - b)/(3))*u':
        '11ab54de4175dd6145c5bd1c69b3493ab86d30e7060ed49554dbd2fba0233221',
    'verify --m 5 --n 4 --alpha 1/4 --g k*t^b --xi-t 0 --xi-x 1 --eta 0':
        '01c69662c6eca0d71e454541fb40be5ede044325c9882fb8c7102d92f89f0d57',
    'verify --m 3 --n 2 --alpha 1/3 --g k --xi-t -t + (1/4) --xi-x ((2)*(2*(1/3))/(5) - (1/3))*x --eta ((2*(1/3))/(5))*u':
        'ac2508b555192386b9d48f32e200af4503a9be9e826996daa57c5f7f7cccc0a2',
    'classify --m 2 --n 4 --g k':
        '27cf12ffe39d2e978bd3df80f8b9214c0c0f7eb9a8364aa7ecde3f07ad57c2e8',
    'classify --m 1 --n 1 --g k':
        '1e498f16e8eee450ecd6ceaf3431d10c7d06d707285ef341a1dbce1f66048caf',
    'reduce --case 1.2 --oracle-b 1/3 --oracle-k 2':
        'e04a99f5fce47e5c80f7b4bcc886c34dcb0557ba8c42be91577bfab6eb2ed988',
    'reduce --case 2.1 --generator-index 0 --oracle-b -1/2 --oracle-k 3':
        '2c17e9d0da5a4307c5ec9833279acf1370d73bb77c9ee4f83a772123db0dd44f',
    'classify --alpha 1/3 --g k*(t^2-b)^(1/3)':
        '59086653456d51594585192d124a2cf0ec915eec571b29da2cab162783505b9b',
    'classify --alpha 1/3 --g 2*exp(3*t)':
        '4e9c6c78f3909d2be65831a3336cefdfedbb11bc08f86bf1058d802d127a5ab1',
    'reduce --g 3*t^2 --alpha 1/4':
        '9ff9156fb87ce8bffbfeab3ecea7740c1952397da10c640fd1ea21fc28e0b419',
    'reduce --g t --alpha 1/3':
        '2abbd2c3cf474124593e696da25d579fc6b82bdd802a80b070c9d2344efcb5b1',
    'reduce --case 2.2 --zeta -1':
        '7241e3d757a45d11aa2d4abbf35d84ae61078fd24bd5adbf503da3db4c92c3b3',
    'reduce --case 1.3 --m 3 --n 5':
        'c4f401207845fd05021dd725f366a18151949d6a030b4bf9ee75b5e264d57b8e',
}

FRAC_DERIV_DIGESTS = {
    'frac-deriv --expr 3/2*t^(1) --alpha 1/4 --at 0.5':
        'f0b1ff6c7d33b32738bad24deb256587234f403fb22b7162574cfcf30b94f42c',
    'frac-deriv --expr 2*t^(3/2) + 5/7*t^(3) --alpha 1/2 --at 0.5':
        '5b7e6311ad3a43080a0b72136f3c7233b8276d3e28b1142d952ef38cf3e57905',
    'frac-deriv --expr 9/4*t^(1) + 1/3*t^(2) + 8/5*t^(5/2) --alpha 3/4 --at 1':
        '00f7e677648ad2f8698370e0ee249eb60e3170f4e2187f59fa0101b3c97524e0',
    'frac-deriv --expr 4/3*t^(5/2) --alpha 1/2 --at 1':
        '01b3a1c74e178583f7b577e74f8b4b0d412cb813b164e66b858f570387a4bb40',
    'frac-deriv --expr 6/7*t^(2) + 1*t^(3) --alpha 1/4 --at 1.5':
        'c2927387a3b7a8b107a32be91df5058dd192a1727b2256429599ab5d1d796ed6',
    'frac-deriv --expr 7/2*t^(3/2) + 2/5*t^(2) + 1/6*t^(3) --alpha 3/4 --at 2':
        '20658cc32aff3cd09a35e16b742f0cbf4433c532da0d1e103232254d2fe89e56',
}


def report_digest(argv, tmp_dir) -> str:
    """sha256 of the report, or of the error line when no report is written.

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


@pytest.mark.parametrize("argv", CATALOG_ARGV + VERIFY_ARGV + DEGENERATE_ARGV
                         + G_PATH_ARGV, ids=_label)
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

    pins = {**DIGESTS, **FRAC_DERIV_DIGESTS}
    with tempfile.TemporaryDirectory() as tmp:
        for argv in (CATALOG_ARGV + VERIFY_ARGV + DEGENERATE_ARGV
                     + G_PATH_ARGV + FRAC_DERIV_ARGV):
            digest = report_digest(argv, pathlib.Path(tmp))
            if digest != pins[_label(argv)]:
                print(f"{_label(argv)}: {pins[_label(argv)]} → {digest}")
