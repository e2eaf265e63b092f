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
        '19834e547e52039bf222ec6ee27783c7da4c382844d7746542d77c64b19c86bd',
    'classify --case 1.2':
        'be6af36ab2c9ade5e3f013390912a328c9840ab01a0f5d9590a6adc279189b37',
    'classify --case 1.3':
        '1e4de74f38dffb3ff1f9dc7270b993c75a7409158f1a584bd2f73bfab8dc48fb',
    'classify --case 2.1':
        '7b20438acc8f3dc076197b183929e147d8cb09859d93da72db53663760211176',
    'classify --case 2.2':
        '0d03ba882780c6f0dd8184f22ca6f8ee4671f573e83053400f1b3fc6704460d2',
    'classify --case 2.3':
        '0bd0525797ae6aa1b4c50cd6c7ca9d0a0e6d0985addb451e047eb209fd7012bf',
    'classify --case 3.1':
        '102f597c2af41599d42ef6a0d3b7f188c6c09317e84b50802370befdcf1f9630',
    'classify --case 3.2':
        'd37f3497a7202a7d205292f8a97dc204f0be7d5e8633a4b6817695795aa68897',
    'classify --case 3.3':
        '7af20b6b4049745708c7347e6a1f6d7321e8f426e4553a7d92b1a497cdeb96a8',
    'reduce --case 1.1 --generator-index 0':
        '6dec322764f5b666f4ed4bf1a4aca9717e1e15a691d4816e2099e4c14c19fcaa',
    'reduce --case 1.2 --generator-index 0':
        'e313f2cc0bb0f116da5459721e2441560fd32ae95c6d9f85301ae1c5271c7b20',
    'reduce --case 1.3 --generator-index 0':
        '895b310044247f3816f00a46c0714eba713d62436ba3179875229da5f218d7ab',
    'reduce --case 2.1 --generator-index 0':
        '0d844548e3ef4ad0167f194921a6b68a842b79a98550f8a9142387b8ba291d32',
    'reduce --case 2.2 --generator-index 0':
        '835af9a0f1a12e4c0dc7ff15d5e81e1d852de619ef748e4ef751a222c3f60c4f',
    'reduce --case 2.3 --generator-index 0':
        '8be3c03e8a31882ce7c6218059f46b615b3e737cae6ff9a1dc06617d99547625',
    'reduce --case 3.1 --generator-index 0':
        '2d1a373124df1bc5f5017fd7736f36ad7619a7d6fd78cad045bda4d0e6cd21dc',
    'reduce --case 3.2 --generator-index 0':
        '5b2e76ebee58c2339ff04a170cb5509196f2a502cc58117a51c36b572ca833d7',
    'reduce --case 3.3 --generator-index 0':
        '6199dd563245db7ed32e8d89bd6865c1605b37ea48653c0c6a6736010dcddd6d',
    'reduce --case 1.2':
        '3fa030d0fa12ee3f41c070350775d1036a89cdd59fe064e9b04e6e499dd1279c',
    'reduce --case 1.3':
        '5de3529b6c59b38052b8f82a5d0f52dffced8c50cdd308d355ab8d31967111f8',
    'reduce --case 2.2':
        'fa22132e8da35946b7bd2df8e7b309209e1394c1ff2fd36ae914c58b37ebc19f',
    'reduce --case 2.3':
        'e6c28b88750cabae1ee1404d5cd795e3e5e5b901f15d5c6a59ee15893806d0b0',
    'reduce --case 3.2':
        '8d6ae8b541d567459a2608a5fc6cc1913d275ea9d3aae79dd507b664e812dc7f',
    'reduce --case 3.3':
        'c3c3338a6c52ac4c58c1d49dfaff01268cdadbb44ba353349e54348db6dfc2e5',
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
    'classify --m 2 --n 4 --g k':
        'c4b674ef94ecc03fbcae845c381832227f5deabe43adfe07aa93c759b1e2387a',
    'classify --m 1 --n 1 --g k':
        'dc528e6f6ffe3664decffb33b29f3fd05dcc62174da0f38296b7b19fb66814af',
    'reduce --case 1.2 --oracle-b 1/3 --oracle-k 2':
        '15f695b1df2427a8faaf4288374a970a9c2fc19b1ab28ecff92c4f9e6d11dfbd',
    'reduce --case 2.1 --generator-index 0 --oracle-b -1/2 --oracle-k 3':
        '9947c6d96ec9047b5d5fba08d22ed69259e57cde3403df753f6901c53d596af1',
    'classify --alpha 1/3 --g k*(t^2-b)^(1/3)':
        'd2b9078b9d6e4347d502cfda1221e6555d59368bf7efde4f7acc8130611cdb40',
    'classify --alpha 1/3 --g 2*exp(3*t)':
        '713e5b7596d6fcb07cb17623d483614fec2c1961ba446c6111cc34c68af4583e',
    'reduce --g 3*t^2 --alpha 1/4':
        '0a091eb9a4727263a9727856cba15ce025b7b328218784559934ce964e3a17c9',
    'reduce --g t --alpha 1/3':
        '1ce735b909c79e8d886f0b7ac518f2b14c57c2ab453a77f007b1b7788f19dda4',
    'reduce --case 2.2 --zeta -1':
        'dc25db22e03fefe95d66ec7d8484f90723d852bdc0c6b0f0af4e8ca88dc90f17',
    'reduce --case 1.3 --m 3 --n 5':
        'a0021e74742b758feabfe40d0deec6ceb901aa21db8a0587ff6c4ec4fd01575e',
}

FRAC_DERIV_DIGESTS = {
    'frac-deriv --expr 3/2*t^(1) --alpha 1/4 --at 0.5':
        'd2914b23657f4132a7e9f726bd6c4d3e2622e2fc44a89f6482afa8d8c85ea60b',
    'frac-deriv --expr 2*t^(3/2) + 5/7*t^(3) --alpha 1/2 --at 0.5':
        '6f674af10c728209a296abeb1aec85498f6bc3707609ad19bbb1519400785a05',
    'frac-deriv --expr 9/4*t^(1) + 1/3*t^(2) + 8/5*t^(5/2) --alpha 3/4 --at 1':
        '7de9a659c0e973609158f837df42968a48d540e49fae4b23f65745c158369620',
    'frac-deriv --expr 4/3*t^(5/2) --alpha 1/2 --at 1':
        '8c05ed774549281fb7cdf876d01085ff79d86ac44871c055c74a4aca911f25cb',
    'frac-deriv --expr 6/7*t^(2) + 1*t^(3) --alpha 1/4 --at 1.5':
        '4eb7e37ace1ae7f2fdc45923b9fbebe4ebe4a4b9476a150fe8c870ff0988ae1e',
    'frac-deriv --expr 7/2*t^(3/2) + 2/5*t^(2) + 1/6*t^(3) --alpha 3/4 --at 2':
        '2ee3388df45ba36b3effb95bf266d304c310d29f70a9ed610defa2a5cd04ddb7',
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
