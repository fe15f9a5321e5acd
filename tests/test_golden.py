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

# sha256 of trace.csv at dt = 1e-3 for the 11 valid cells.
TRACE_SHA256 = {
    ("ex1", "sclc", None): "9bed26677bec6651587454e0125715e45253b659f3aa0c5890d905b4b91c52f0",
    ("ex2", "sclc", None): "75213e64cdb4a5a671c15f5ca20b9947721de270be44a20163c11d9a9155ba9c",
    ("ex2", "jlc", None): "8100bb35243ac00c98f9f798b14df9df138d7bd5b5d9fdc09dcc6829990ffc8f",
    ("ex3", "sclc", "i"): "ddcba79d966d9c5be9c4ed0bd6705dda80a9a32899ee39b93125032d3a2bfbf2",
    ("ex3", "jlc", "i"): "0650915f4690199c8155c2df6da4b5d3d33376b2df6bb45436d8e9c0ff59bfe3",
    ("ex3", "flc", "i"): "195c059c65e28da779797d7dfe3092b041412ad87653af5fed435b62ceaec503",
    ("ex3", "rflc", "i"): "fb955ce9458da5e682b20e7e77d899148efd1201c62639bc8879e38ab9a2a24b",
    ("ex3", "adrc", "i"): "acd57eb07480191a5712b085a7c41dba8e82c162881735d299dafdf621186441",
    ("ex3", "sclc", "ii"): "9062c442a942dc65f84813595dd8b524d405bf820aa7126f7f7a076cb6913625",
    ("ex3", "sclc", "iii"): "e9336c1057c2ab0322eb3e500e81b65031e940e8119d37c7b1986c6dbe79ddee",
    ("ex3", "sclc", "iv"): "b4a5101348a2540431dbb0b4253e1943a9c76da9dfaf569eabfce2858ce1ff23",
}

# (classification, repr(iae), repr(itae)) for every table1 cell.
TABLE1 = {
    ("i", "sclc"): ("converged", "2.0022840090725142", "1.14264019960878"),
    ("i", "jlc"): ("converged", "2.485377798495307", "1.8264280638989088"),
    ("i", "flc"): ("converged", "3.475245230424072", "3.806749162797397"),
    ("i", "rflc"): ("converged", "1.751995628592235", "0.929625392561734"),
    ("i", "adrc"): ("converged", "2.5723764854662785", "3.9047581505311957"),
    ("ii", "sclc"): ("converged", "5.237270296318009", "3.076655872360735"),
    ("ii", "jlc"): ("unstable", "None", "None"),
    ("ii", "flc"): ("singular", "7.694142038759034", "8.302475466805117"),
    ("ii", "rflc"): ("singular", "3.5293133493809665", "1.7639030431370275"),
    ("ii", "adrc"): ("converged", "9.652239090890054", "19.223186183935677"),
    ("iii", "sclc"): ("converged", "11.433309566853897", "50.85136427328189"),
    ("iii", "jlc"): ("converged", "13.113735059349354", "57.38850179950062"),
    ("iii", "flc"): ("converged", "20.00729198407822", "94.98592200461995"),
    ("iii", "rflc"): ("converged", "10.470412900360113", "47.134237668808915"),
    ("iii", "adrc"): ("converged", "7.707592480827474", "28.998421401421332"),
    ("iv", "sclc"): ("converged", "2.2393841844195226", "1.3162779997632554"),
    ("iv", "jlc"): ("converged", "2.8899797831578056", "2.18753626381837"),
    ("iv", "flc"): ("converged", "2.7384048557223526", "2.5260171488124734"),
    ("iv", "rflc"): ("singular", "None", "None"),
    ("iv", "adrc"): ("converged", "3.3064836243697044", "5.4701102497848915"),
}


@pytest.mark.parametrize("cell", sorted(TRACE_SHA256, key=str), ids=str)
def test_trace_csv_digest(bench, tmp_path, cell):
    trace, _ = bench.cell(*cell)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_SHA256[cell]


def test_table1_cells(bench):
    table = bench.table()
    got = {key: (rep.classification, repr(rep.iae), repr(rep.itae))
           for key, rep in table.cells.items()}
    assert got == TABLE1
