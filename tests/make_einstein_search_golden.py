"""Write tests/data/einstein_search_golden.txt.

The golden holds the `einstein-search --output json --patterns all
--restarts 2` output of every exact catalog entry whose presented basis is
nice, each under a `# <name>` header line, and then the same search with
`--backend float` on the two 8-dim Einstein examples, under
`# <name> float`.  test_nice.py compares a fresh
run against it byte for byte.  Regenerate only when a change to the exact
search output is intended:

    PYTHONPATH=src python tests/make_einstein_search_golden.py
"""

import contextlib
import io
import pathlib

from liecurv import cli
from liecurv.catalog import load_catalog
from liecurv.nice import nice_basis_check

GOLDEN = pathlib.Path(__file__).parent / "data" / "einstein_search_golden.txt"


FLOAT_ENTRIES = ("n8-einstein", "n8-lorentzian")


def _search(structure, backend):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--backend", backend, "--output", "json",
                         "einstein-search", "--structure", structure,
                         "--patterns", "all", "--restarts", "2"])
    assert code == 0, (structure, code)
    return buf.getvalue()


def render() -> str:
    entries = load_catalog()
    out = [f"# {e.name}\n{_search(e.structure, 'exact')}" for e in entries
           if e.exact and nice_basis_check(e.parse()).is_nice]
    out += [f"# {e.name} float\n{_search(e.structure, 'float')}"
            for e in entries if e.name in FLOAT_ENTRIES]
    return "".join(out)


if __name__ == "__main__":
    GOLDEN.write_text(render())
    print(f"wrote {GOLDEN}")
