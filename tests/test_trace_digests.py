"""Golden trace CSVs: the sha256 of ``write_trace_csv(run_path(spec, SEED,
T))`` on the five specs of ``test_engine_digests.py``, honest and under both
chaos rules, pinned as the scalar engine and the writer gave them when
recorded.  T is one writer block plus 4464 slots, so each trace crosses a
block boundary of the writer, and on the non-lattice spec also the slot
where ``run_path`` hands its table over to plain deciding.  A refactor of
either that changes any byte fails here; the pins are not chosen to pass.

``PYTHONPATH=src python tests/test_trace_digests.py`` prints the current digests in the
form of ``DIGESTS``, for a change that means to alter them."""

import hashlib
import os
import tempfile

import pytest
from test_engine_digests import SPECS

from dpp_lab.controller import run_path
from dpp_lab.core import TRACE_CSV_BLOCK, write_trace_csv

SEED, T = 5, TRACE_CSV_BLOCK + 4464
MODES = (None, "skip-minimization", "worst-action")


def digest(name: str, chaos: str | None) -> str:
    trace = run_path(SPECS[name](), SEED, T, chaos=chaos)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "trace.csv")
        write_trace_csv(trace, path)
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()


DIGESTS = {
    ('server', None):
        'ae32b096d06bcee7caa8452813e254186dcc1859a20c55b10044ffbf1c632618',
    ('server', 'skip-minimization'):
        'b834c28c1ef30b899da489260e045019cdce456f9d481acafd3fecf239028640',
    ('server', 'worst-action'):
        '42577ae56607e04fdc2eab2f0ce7761038189ed35b0bf5e09ec02ad500064fff',
    ('single', None):
        '44573d141ba021cd821550eba58738d8b553314c28d04aced298541dd6bb506b',
    ('single', 'skip-minimization'):
        'e5cee4eaa591d28a600d543b1052fdd0a7acbbc896a97e81a3062eeed0e4d096',
    ('single', 'worst-action'):
        'e295fe4120f0e65d6b09ca37cee49e6ff4ec80b6a811b415fb3bdfb34b702f37',
    ('ragged', None):
        '8981b41b0630167350aecc3217b2c07e1696eaf907f6409cd3dcbd3264521b6f',
    ('ragged', 'skip-minimization'):
        'f5ed02637f64319ae5fb4a4074194c73ad7eb359d410ddcc1ead6cb102d42d2c',
    ('ragged', 'worst-action'):
        '24b23875010127a468a12c563429f5d8308eaf99ed796e6c500c0b36a8d0be9c',
    ('non_lattice', None):
        '26fe72dd8c56745a8756513c230e0ad8d232cda2b3dbc4d12e4a0f0b6de22ecf',
    ('non_lattice', 'skip-minimization'):
        '17165c995b8f839df36561c2a4e34b2833a34d78d5f3b9d5be672becbb1ed8e2',
    ('non_lattice', 'worst-action'):
        '0014c8e83c11262d6e286ab45cd38d04cc58a87d6a82b06e5f3ee1810681ea36',
    ('tight', None):
        '9c59a75b38c66563a71e5d0078bfe881e0fec2f865c34e7e61030ba5a7117618',
    ('tight', 'skip-minimization'):
        '58abe9b8bd2d2d544ca49dbf6b51be4f04a97808bd7f193e26c3660b99dde623',
    ('tight', 'worst-action'):
        'fd7f2543441f087a14e1ec7ca4f87afc9ef893867aae490a9789ddd5c3374cce',
}


@pytest.mark.parametrize("name, chaos", sorted(DIGESTS, key=repr))
def test_trace_digest(name, chaos):
    assert digest(name, chaos) == DIGESTS[name, chaos]


if __name__ == "__main__":
    for key in ((name, chaos) for name in SPECS for chaos in MODES):
        print(f"    {key!r}:\n        {digest(*key)!r},")
