"""Every command of the benchmark's CLI catalogue prints, byte for byte,
what the recorded reference printed, and the contraction engine and
wrt give the recorded packed pairs and values, so no speed change can
alter an output unnoticed."""

import importlib.util
from hashlib import sha256
from itertools import product
from pathlib import Path

from uwrt import cli
from uwrt.errors import UwrtError
from uwrt.invariants import SurgeryPresentation, s3_presentations, wrt
from uwrt.repring import omega_truncated
from uwrt.tangles import BUILTIN_NAMES, _closed, builtin, closure_of_braid

WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
             / "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_cli_catalogue_stdout_is_the_recorded_one():
    workloads = _load_workloads()
    digests = workloads.load_digests()
    catalogue = workloads.cli_catalogue()
    assert len(catalogue) == len(digests)
    changed = [workloads.argv_key(argv) for argv in catalogue
               if workloads.stdout_digest(*workloads.run_cli(cli, argv))
               != digests[workloads.argv_key(argv)]]
    assert changed == []


# sha256 of the _closed pairs below, recorded from the engine before it
# skipped strands of colour 0: a tuple with a 0 colour is checked against
# a contraction of every strand
CLOSED_PAIRS = \
    "29bc30e8516b739649956cd544c5fff28238361c47f8fbfb5db553df3e13d141"


def test_closed_pairs_are_the_recorded_ones():
    # every packed pair, bit for bit, of every builtin and every braid
    # variant of the surgery workload at all colours <= 5, contracted
    # afresh (not read from the cache)
    diagrams = [builtin(name) for name in BUILTIN_NAMES]
    diagrams += [closure_of_braid(3, word)
                 for word in _load_workloads().braid_variants()]
    digest = sha256()
    for d in diagrams:
        for cs in product(range(6), repeat=d.component_count):
            digest.update(repr((cs, _closed.__wrapped__(d, cs))).encode())
    assert digest.hexdigest() == CLOSED_PAIRS


# sha256 of the wrt values below, recorded from the rational solve that
# divided by the framed unknots before the Gauss-sum identity did
WRT_VALUES = \
    "5d02b781f430c6b283688407ea8a360628d6044c65f2f2bc1c44c0b67316c887"


def test_wrt_values_are_the_recorded_ones():
    # every builtin under every +-1 framing at r <= 12 (the Borromean
    # rings at r <= 6) and the presentations of S^3 at r <= 12; a refusal
    # is recorded by its type
    grid = []
    for name in BUILTIN_NAMES:
        d = builtin(name)
        top = 7 if name == "borromean" else 13
        grid += [((name, fr), SurgeryPresentation(diagram=d, framings=fr), r)
                 for fr in product((1, -1), repeat=d.component_count)
                 for r in range(1, top)]
    grid += [(("s3", i), pres, r) for i, pres in enumerate(s3_presentations())
             for r in range(1, 13)]
    digest = sha256()
    for key, pres, r in grid:
        try:
            value = wrt(pres, r)
        except UwrtError as exc:
            value = type(exc).__name__
        digest.update(repr((key, r, value)).encode())
    assert digest.hexdigest() == WRT_VALUES


# sha256 of the omega elements below, recorded when omega_coeff built
# each coefficient by its own LaurentU pass
OMEGA_ROWS = \
    "2fee474990abeb7c0d954abb2dffceebecbfdd058994db235f8b2661946b0c20"


def test_omega_rows_are_the_recorded_ones():
    # omega^p through P'_11 for every |p| <= 7, both signs
    digest = sha256()
    for p in range(-7, 8):
        digest.update(repr((p, omega_truncated(p, 12).terms)).encode())
    assert digest.hexdigest() == OMEGA_ROWS


# sha256 of the stdout below, recorded when _borromean_factor was an exact
# division of falling products
FAMILY_ROOT_40 = \
    "814aaeef9852bce08eb20f534d62e3711a25f836c00b255091319ebb3450d2f0"


def test_family_form_at_root_40_is_the_recorded_one():
    # the closed formula at depth 40, past every depth of the catalogue
    argv = ["eval", "--surgery", '{"family":"borromean","params":[1,1,1]}',
            "root", "40"]
    rc, text = _load_workloads().run_cli(cli, argv)
    assert rc == 0
    assert sha256(text.encode()).hexdigest() == FAMILY_ROOT_40
