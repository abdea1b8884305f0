"""Write tests/data/einstein_search_golden.txt.

The golden holds the `einstein-search --output json --patterns all
--restarts 2` output of every exact catalog entry whose presented basis is
nice, each under a `# <name>` header line.  test_nice.py compares a fresh
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


def render() -> str:
    out = []
    for e in load_catalog():
        if not (e.exact and nice_basis_check(e.parse()).is_nice):
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--output", "json", "einstein-search",
                             "--structure", e.structure, "--patterns", "all",
                             "--restarts", "2"])
        assert code == 0, (e.name, code)
        out.append(f"# {e.name}\n{buf.getvalue()}")
    return "".join(out)


if __name__ == "__main__":
    GOLDEN.write_text(render())
    print(f"wrote {GOLDEN}")
