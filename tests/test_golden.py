"""Golden pins: byte-level fingerprints of every valid benchmark cell.

The trace digests cover every recorded signal at 15 significant digits
(through the CLI's own CSV writer) and the table pins compare the exact
float reprs, so a refactor that claims to be behaviour-neutral must keep
all of them.  If a change legitimately moves bits, regenerate the pins in
the same change and record the measured deviation.
"""

import hashlib

import pytest

from scl_lab.cli import write_trace_csv
from scl_lab.plants import simulate

# sha256 of trace.csv at dt = 1e-3 for the 11 valid cells.
TRACE_SHA256 = {
    ("ex1", "sclc", None): "9bed26677bec6651587454e0125715e45253b659f3aa0c5890d905b4b91c52f0",
    ("ex2", "sclc", None): "75213e64cdb4a5a671c15f5ca20b9947721de270be44a20163c11d9a9155ba9c",
    ("ex2", "jlc", None): "8100bb35243ac00c98f9f798b14df9df138d7bd5b5d9fdc09dcc6829990ffc8f",
    ("ex3", "sclc", "i"): "978ef1ec932dcf886e3a90d61d724df34bb5a2add83e4950c33ac22a62d17e1b",
    ("ex3", "jlc", "i"): "da0a38ff63fadd27839e26bc41935dc068008995b444935eeb99c1bdb14567f7",
    ("ex3", "flc", "i"): "d52a10adb46ec0378e9745e34db6d2ad3bc47764e528b5810a33b655904f65be",
    ("ex3", "rflc", "i"): "58528e9c3c653c0b599424aa7cf4e1f84f616fcd29f0df5fb8e06eb0dc16687c",
    ("ex3", "adrc", "i"): "ae150b2e8fd65bd4f5bc76eb506442260ab3e2bcdb4a6c80bf23082bca453db4",
    ("ex3", "sclc", "ii"): "934749e711aeecbf1fb3e8ba870c479450c3eea593e19ca3e0a9b09b29f2b2f0",
    ("ex3", "sclc", "iii"): "db024e7507bf96b6a735a6e10b4958100ed42fc3b964290f7a80eacf78f3f995",
    ("ex3", "sclc", "iv"): "ae0294110e81146b51bee30a38b4edf046cf694182e552fceecdbe269d96675a",
}

# (classification, repr(iae), repr(itae)) for every table1 cell.
TABLE1 = {
    ("i", "sclc"): ("converged", "2.0022840090725156", "1.1426401996087814"),
    ("i", "jlc"): ("converged", "2.485377798495308", "1.8264280638989105"),
    ("i", "flc"): ("converged", "3.475245230424072", "3.8067491627973973"),
    ("i", "rflc"): ("converged", "1.7519956285922351", "0.9296253925617346"),
    ("i", "adrc"): ("converged", "2.5723764854662776", "3.904758150531193"),
    ("ii", "sclc"): ("converged", "5.237270296318012", "3.076655872360739"),
    ("ii", "jlc"): ("unstable", "None", "None"),
    ("ii", "flc"): ("singular", "7.694141913321269", "8.302475197620142"),
    ("ii", "rflc"): ("singular", "3.529313165273322", "1.7639027608672746"),
    ("ii", "adrc"): ("converged", "9.652239090890049", "19.22318618393566"),
    ("iii", "sclc"): ("converged", "11.4333095668539", "50.8513642732819"),
    ("iii", "jlc"): ("converged", "13.113735059349358", "57.388501799500645"),
    ("iii", "flc"): ("converged", "20.007291984078222", "94.98592200461997"),
    ("iii", "rflc"): ("converged", "10.470412900360117", "47.13423766880893"),
    ("iii", "adrc"): ("converged", "7.707592480827472", "28.998421401421336"),
    ("iv", "sclc"): ("converged", "2.2393841844195226", "1.3162779997632554"),
    ("iv", "jlc"): ("converged", "2.889979783157806", "2.1875362638183717"),
    ("iv", "flc"): ("converged", "2.738404855722353", "2.5260171488124747"),
    ("iv", "rflc"): ("singular", "None", "None"),
    ("iv", "adrc"): ("converged", "3.3064836243697044", "5.4701102497848915"),
}


@pytest.mark.parametrize("cell", sorted(TRACE_SHA256, key=str), ids=str)
def test_trace_csv_digest(bench, tmp_path, cell):
    trace, _ = bench.cell(*cell)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_SHA256[cell]


@pytest.mark.parametrize("cell", sorted(TRACE_SHA256, key=str), ids=str)
def test_a_reused_law_reruns_to_the_golden_trace(bench, tmp_path, cell):
    # simulate resets the law: a second full-horizon run on the law object
    # of the cached first run (test_trace_csv_digest checks that one)
    # writes the same trace.csv.
    setup = bench.setup(*cell)
    path = tmp_path / "trace.csv"
    write_trace_csv(simulate(setup.plant, setup.law, setup.scenario), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_SHA256[cell]


def test_table1_cells(bench):
    table = bench.table()
    got = {key: (rep.classification, repr(rep.iae), repr(rep.itae))
           for key, rep in table.cells.items()}
    assert got == TABLE1
