"""Golden outcomes of the lockstep engine: 512 paths x 200 slots on five
specs under thirteen variants (chaos rules, KeyFeature, understated B or
z_max, understated c1 and c2).  Each outcome is the sha256 of every
``PathStats`` field or the violation's replay fields, pinned as the engine
gave them when recorded.  A refactor of ``simulate_chunk`` that changes any
bit, verdict or replay field fails here; the pins are not chosen to pass.

``PYTHONPATH=src python tests/test_engine_digests.py`` prints the current outcomes in the
form of ``DIGESTS``, for a change that means to alter them."""

import hashlib
from dataclasses import replace
from functools import cache

import pytest
from helpers import non_lattice_spec, ragged_spec, tight_step_spec, unchecked_spec

from dpp_lab.analysis import constants_for_horizon
from dpp_lab.events import builtin_spec, derive_seeds
from dpp_lab.montecarlo import InvariantViolation, simulate_paths
from dpp_lab.oracle import solve_stationary_optimum

N, T, SEED = 512, 200, 31
FIELDS = ("avg_obj", "avg_cons", "x_final", "g_final", "max_qnorm", "tele_gap",
          "tele_bound", "tele_avg", "final_qnorm")

SPECS = {
    "server": lambda: builtin_spec("server-scheduling-3x2", 10.0),
    "single": lambda: builtin_spec("single-queue-serve-idle", 10.0),
    "ragged": ragged_spec,
    "non_lattice": non_lattice_spec,
    "tight": lambda: tight_step_spec(33.3, V=4e5),
}
# name: (spec field factors, constants replaced, simulate_paths keywords); a
# replaced constant is a function of the honest constants
VARIANTS = {
    "bare": ({}, {}, {}),
    "KeyFeature": ({}, {}, {"key_feature": True}),
    "skip-minimization": ({}, {}, {"chaos": "skip-minimization"}),
    "skip-minimization+KeyFeature": ({}, {}, {"chaos": "skip-minimization",
                                              "key_feature": True}),
    "worst-action": ({}, {}, {"chaos": "worst-action"}),
    "worst-action+KeyFeature": ({}, {}, {"chaos": "worst-action", "key_feature": True}),
    "B*0.5": ({"B": 0.5}, {}, {}),
    "B*0.99": ({"B": 0.99}, {}, {}),
    "z_max/100": ({"z_max": 0.01}, {}, {}),
    "z_max/100+KeyFeature": ({"z_max": 0.01}, {}, {"key_feature": True}),
    "c1/50,c2/3": ({}, {"c1": lambda c: c.c1 * (1 / 50), "c2": lambda c: c.c2 * (1 / 3)}, {}),
    # c2 below the server's steps of 10 and 11, so that a step is flagged, where
    # c2/3 stays far above every step: at c1 = 13.1 (test_montecarlo's stop
    # test) the first flagged step comes before its path stops; at c1 = 12
    # a stopped path takes a flagged step first, so the outcome also depends
    # on flags not counting after the stop
    "c1=13.1,c2=10.5": ({}, {"c1": lambda c: 13.1, "c2": lambda c: 10.5}, {}),
    "c1=12,c2=9.5": ({}, {"c1": lambda c: 12.0, "c2": lambda c: 9.5}, {}),
}


@cache
def _honest(name: str):
    spec = SPECS[name]()
    return spec, solve_stationary_optimum(spec)


def outcome(name: str, variant: str):
    """The sha256 of every PathStats field, or the violation's (law, path
    index, seed, slot, detail).  The constants and the stationary optimum
    are the honest spec's, whatever the variant understates."""
    spec, sol = _honest(name)
    spec_factors, const_values, kwargs = VARIANTS[variant]
    consts = constants_for_horizon(spec, sol.xi, T, 0.05)
    spec = unchecked_spec(spec, **{k: getattr(spec, k) * f for k, f in spec_factors.items()})
    consts = replace(consts, **{k: f(consts) for k, f in const_values.items()})
    try:
        stats = simulate_paths(spec, derive_seeds(SEED, 0, N), T, sol.z_opt, consts, **kwargs)
    except InvariantViolation as e:
        return e.law, e.path_index, e.path_seed, e.slot, e.detail
    h = hashlib.sha256()
    for f in FIELDS:
        a = getattr(stats, f)
        h.update(b"None" if a is None else a.tobytes())
    return h.hexdigest()


DIGESTS = {
    ('server', 'bare'):
        '238414d45c73ac6dd48df5604edf05153cc9500f0958acb86a68ce0a2665c835',
    ('server', 'KeyFeature'):
        '238414d45c73ac6dd48df5604edf05153cc9500f0958acb86a68ce0a2665c835',
    ('server', 'skip-minimization'):
        '4256299ac8b2db511fc2fbe0e169898044ba73c9495c0814bfb5c8a295b318c3',
    ('server', 'skip-minimization+KeyFeature'):
        ('exact conditional expectation', 5, 8539583508576028158, 4,
         'value 0.19999999999999996'),
    ('server', 'worst-action'):
        'ad987513e3a77af33545f553b34bbae2e0707184a515fc58728c7504948cbfe3',
    ('server', 'worst-action+KeyFeature'):
        ('exact conditional expectation', 0, 8429667923240978791, 1,
         'value 9.0'),
    ('server', 'B*0.5'):
        ('queue norm step bound', 3, 6812859496595839385, 1,
         '1.0 exceeds 0.8660254037844386'),
    ('server', 'B*0.99'):
        ('quadratic drift bound', 238, 16753303054302939283, 70,
         '-20.5 exceeds -20.52985'),
    ('server', 'z_max/100'):
        '238414d45c73ac6dd48df5604edf05153cc9500f0958acb86a68ce0a2665c835',
    ('server', 'z_max/100+KeyFeature'):
        '238414d45c73ac6dd48df5604edf05153cc9500f0958acb86a68ce0a2665c835',
    ('server', 'c1/50,c2/3'):
        '238414d45c73ac6dd48df5604edf05153cc9500f0958acb86a68ce0a2665c835',
    ('server', 'c1=13.1,c2=10.5'):
        ('stopped process difference bound', 238, 16753303054302939283, 47,
         '11.0 exceeds 10.5'),
    ('server', 'c1=12,c2=9.5'):
        ('stopped process difference bound', 260, 13138863634577620791, 70,
         '10.0 exceeds 9.5'),
    ('single', 'bare'):
        'c56c96d84a7dde88a619996240a633b3973375d0698ca39ce6d31ef7a54479a8',
    ('single', 'KeyFeature'):
        'c56c96d84a7dde88a619996240a633b3973375d0698ca39ce6d31ef7a54479a8',
    ('single', 'skip-minimization'):
        '1d0e93cce2780d0c90bd4d5a4af141ea15ad062a056d5d242edbd9c2915f9943',
    ('single', 'skip-minimization+KeyFeature'):
        ('exact conditional expectation', 50, 7192607113700560092, 12,
         'value 0.5'),
    ('single', 'worst-action'):
        '3b4f4fd0271f703cec0424acd9764fdeaf9feb3cd1e9714559dab15e86ccc0f1',
    ('single', 'worst-action+KeyFeature'):
        ('exact conditional expectation', 0, 8429667923240978791, 1,
         'value 5.0'),
    ('single', 'B*0.5'):
        ('queue norm step bound', 2, 15851233545212064141, 1,
         '1.0 exceeds 0.5'),
    ('single', 'B*0.99'):
        ('queue norm step bound', 2, 15851233545212064141, 1,
         '1.0 exceeds 0.99'),
    ('single', 'z_max/100'):
        'c56c96d84a7dde88a619996240a633b3973375d0698ca39ce6d31ef7a54479a8',
    ('single', 'z_max/100+KeyFeature'):
        'c56c96d84a7dde88a619996240a633b3973375d0698ca39ce6d31ef7a54479a8',
    ('single', 'c1/50,c2/3'):
        'c56c96d84a7dde88a619996240a633b3973375d0698ca39ce6d31ef7a54479a8',
    ('single', 'c1=13.1,c2=10.5'):
        'c56c96d84a7dde88a619996240a633b3973375d0698ca39ce6d31ef7a54479a8',
    ('single', 'c1=12,c2=9.5'):
        'c56c96d84a7dde88a619996240a633b3973375d0698ca39ce6d31ef7a54479a8',
    ('ragged', 'bare'):
        '54e1bc99d27676b08d5ded83c6f7bd8971c8d654ed11bbf982853d2cbc5dea95',
    ('ragged', 'KeyFeature'):
        '54e1bc99d27676b08d5ded83c6f7bd8971c8d654ed11bbf982853d2cbc5dea95',
    ('ragged', 'skip-minimization'):
        'ce0c4e5e3a4bc021852ae0303fdba6395610a2516c01446fba598d7f3e791797',
    ('ragged', 'skip-minimization+KeyFeature'):
        ('exact conditional expectation', 0, 8429667923240978791, 3,
         'value 0.1215789473684209'),
    ('ragged', 'worst-action'):
        '88396a563967b28865aef3645f29bccf7ddd9dee5d0f430b198c7f4b5940e503',
    ('ragged', 'worst-action+KeyFeature'):
        ('exact conditional expectation', 0, 8429667923240978791, 1,
         'value 2.881578947368421'),
    ('ragged', 'B*0.5'):
        ('queue norm step bound', 0, 8429667923240978791, 1,
         '0.9 exceeds 0.5'),
    ('ragged', 'B*0.99'):
        ('queue norm step bound', 1, 9961984956099590362, 3,
         '1.0 exceeds 0.99'),
    ('ragged', 'z_max/100'):
        '54e1bc99d27676b08d5ded83c6f7bd8971c8d654ed11bbf982853d2cbc5dea95',
    ('ragged', 'z_max/100+KeyFeature'):
        '54e1bc99d27676b08d5ded83c6f7bd8971c8d654ed11bbf982853d2cbc5dea95',
    ('ragged', 'c1/50,c2/3'):
        '54e1bc99d27676b08d5ded83c6f7bd8971c8d654ed11bbf982853d2cbc5dea95',
    ('ragged', 'c1=13.1,c2=10.5'):
        '54e1bc99d27676b08d5ded83c6f7bd8971c8d654ed11bbf982853d2cbc5dea95',
    ('ragged', 'c1=12,c2=9.5'):
        '54e1bc99d27676b08d5ded83c6f7bd8971c8d654ed11bbf982853d2cbc5dea95',
    ('non_lattice', 'bare'):
        '53eecc1049d5e4e23d14ba1eca4c1de8dbcd6198f99cae9b29f8f1aa8975608a',
    ('non_lattice', 'KeyFeature'):
        '53eecc1049d5e4e23d14ba1eca4c1de8dbcd6198f99cae9b29f8f1aa8975608a',
    ('non_lattice', 'skip-minimization'):
        '118d57e2e125c5b5a32aba919b25940090a63c35c79b355aa67d88948dce3c9e',
    ('non_lattice', 'skip-minimization+KeyFeature'):
        ('exact conditional expectation', 0, 8429667923240978791, 1,
         'value 35.52992727144074'),
    ('non_lattice', 'worst-action'):
        '8cd5d3f6ca7f4a7cd39c6f3b8533fa011755a32795dd97a939250da22b267fd0',
    ('non_lattice', 'worst-action+KeyFeature'):
        ('exact conditional expectation', 0, 8429667923240978791, 1,
         'value 43.97829083490444'),
    ('non_lattice', 'B*0.5'):
        ('queue norm step bound', 9, 2793241590204136849, 1,
         '1.0752701643619933 exceeds 0.8660254037844386'),
    ('non_lattice', 'B*0.99'):
        '53eecc1049d5e4e23d14ba1eca4c1de8dbcd6198f99cae9b29f8f1aa8975608a',
    ('non_lattice', 'z_max/100'):
        '53eecc1049d5e4e23d14ba1eca4c1de8dbcd6198f99cae9b29f8f1aa8975608a',
    ('non_lattice', 'z_max/100+KeyFeature'):
        '53eecc1049d5e4e23d14ba1eca4c1de8dbcd6198f99cae9b29f8f1aa8975608a',
    ('non_lattice', 'c1/50,c2/3'):
        '53eecc1049d5e4e23d14ba1eca4c1de8dbcd6198f99cae9b29f8f1aa8975608a',
    ('non_lattice', 'c1=13.1,c2=10.5'):
        ('stopped process difference bound', 0, 8429667923240978791, 1,
         '15.850083081869803 exceeds 10.5'),
    ('non_lattice', 'c1=12,c2=9.5'):
        ('stopped process difference bound', 0, 8429667923240978791, 1,
         '15.850083081869803 exceeds 9.5'),
    ('tight', 'bare'):
        '2563c5fe225fe9a2c8b1c418839c202b7dd768fa98718662c25638b85dcf8480',
    ('tight', 'KeyFeature'):
        '2563c5fe225fe9a2c8b1c418839c202b7dd768fa98718662c25638b85dcf8480',
    ('tight', 'skip-minimization'):
        '2563c5fe225fe9a2c8b1c418839c202b7dd768fa98718662c25638b85dcf8480',
    ('tight', 'skip-minimization+KeyFeature'):
        '2563c5fe225fe9a2c8b1c418839c202b7dd768fa98718662c25638b85dcf8480',
    ('tight', 'worst-action'):
        'c9c59b9b39e83f2cfc3911de3e82b6be066209bc6043c089cb1bf5fb693925de',
    ('tight', 'worst-action+KeyFeature'):
        ('exact conditional expectation', 0, 8429667923240978791, 1,
         'value 300000.0'),
    ('tight', 'B*0.5'):
        ('queue norm step bound', 2, 15851233545212064141, 1,
         '33.3 exceeds 16.65'),
    ('tight', 'B*0.99'):
        ('queue norm step bound', 2, 15851233545212064141, 1,
         '33.3 exceeds 32.967'),
    ('tight', 'z_max/100'):
        '2563c5fe225fe9a2c8b1c418839c202b7dd768fa98718662c25638b85dcf8480',
    ('tight', 'z_max/100+KeyFeature'):
        '2563c5fe225fe9a2c8b1c418839c202b7dd768fa98718662c25638b85dcf8480',
    ('tight', 'c1/50,c2/3'):
        '2563c5fe225fe9a2c8b1c418839c202b7dd768fa98718662c25638b85dcf8480',
    ('tight', 'c1=13.1,c2=10.5'):
        ('stopped process difference bound', 0, 8429667923240978791, 1,
         '100000.0 exceeds 10.5'),
    ('tight', 'c1=12,c2=9.5'):
        ('stopped process difference bound', 0, 8429667923240978791, 1,
         '100000.0 exceeds 9.5'),
}


@pytest.mark.parametrize("name, variant", sorted(DIGESTS))
def test_engine_digest(name, variant):
    assert outcome(name, variant) == DIGESTS[name, variant]


@pytest.mark.parametrize("variant", ["c1=13.1,c2=10.5", "c1=12,c2=9.5"])
def test_understated_c2_flags_a_server_step(variant):
    assert outcome("server", variant) != outcome("server", "bare")


if __name__ == "__main__":
    for key in ((name, variant) for name in SPECS for variant in VARIANTS):
        value = outcome(*key)
        if isinstance(value, tuple):
            *head, detail = value
            value = f"({', '.join(map(repr, head))},\n         {detail!r})"
        else:
            value = repr(value)
        print(f"    {key!r}:\n        {value},")
