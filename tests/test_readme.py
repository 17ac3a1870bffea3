import json
import re
from pathlib import Path

import perturbproj.cli as cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # the second example reuses the first one's rng
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["release"].record["method"] == "EVEN_FLATTEN"


def _sidecar_table() -> dict:
    """The README's sidecar table: {release: set of keys}, one entry per row."""
    text = README.read_text()
    start = text.index("| release | sidecar keys |\n|---|---|\n")
    rows = {}
    for line in text[start:].splitlines()[2:]:
        if not line.startswith("|"):
            break
        release, keys = (cell.strip() for cell in line.strip("|").split("|"))
        rows[release.strip("`")] = set(re.findall(r"`([^`]+)`", keys))
    return rows


RELEASES = {
    "similarity --mode exact": ["similarity", "--mode", "exact"],
    "similarity --mode practical": ["similarity", "--mode", "practical"],
    "marginals --mode even-flatten": ["marginals", "--mode", "even-flatten"],
    "marginals --mode threshold": ["marginals", "--mode", "threshold", "--sparsity", "2"],
    "marginals --mode gaussian": ["marginals", "--mode", "gaussian"],
}


def test_readme_sidecar_table_lists_exactly_the_keys_of_each_cli_sidecar(tmp_path):
    table = _sidecar_table()
    assert set(table) == {"every release", *RELEASES}
    vectors, records = tmp_path / "v.csv", tmp_path / "d.csv"
    vectors.write_text("1,0\n0.6,0.8\n0,1\n")
    records.write_text("1,0,1\n0,1,0\n1,1,0\n")
    for release, argv in RELEASES.items():
        source = vectors if argv[0] == "similarity" else records
        out = tmp_path / "release.out"
        assert cli.main([*argv, "--input", str(source), "--epsilon", "1", "--delta", "1e-6",
                         "--seed", "1", "--out", str(out)]) == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert set(sidecar) == table["every release"] | table[release], release
