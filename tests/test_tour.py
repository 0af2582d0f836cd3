"""The README command tour, frozen byte for byte.

Each line runs in-process through cli.dispatch; the SHA-256 of its stdout
must equal the digest recorded before the exponential-sum engines were
restructured. The tour's `expsum scan --count 40` line takes about 20 s,
so it is run here at --count 4 (same seed, a prefix of the same survey).
"""

import hashlib
import shlex

import pytest

from alpha4 import cli

TOUR = {
    "alpha": "759941104c0532bed6ff7fb603e02a199aa4da80d6b76870b0d829d91eef8c87",
    "alpha --k 1 --bits 64": "508f3e8a3909b5f6e154d5fb7c4d5190cd89f50567d2122a751819064ab9ed87",
    "prop1 --p 13 --r 3 --residuals": "7a8018b5538cbf0efa8b963778f30468b52af3ff245e7e922d4c24b44b8a2ff4",
    "rho --u 2.5": "a88775d9f06f95ac53446f68aff3a4cc97df676d56d95209bcc525bb6800b171",
    "rho --ten-thirds": "f381d649bd9004c52c22aca96086c1a4e543144843e5b3e4f4ec3f1d1e2c2cd6",
    "psi --x 100000 --y 63": "c7876f3ac3651b44aad9cca9f9cf9d4cd402c1bc18a4362e3ecd4fc23c90d20a",
    "sieve weights --d 100 --z 10 --n-limit 2000 --dump-weights":
        "b921d15021ca9dbabd1c9f54ff1fa5ae66a6130fab6ae0b543fe9a7d77382f17",
    "sieve Ff --s 3": "24e599b2eb7e7fa404747e977a52078dfbe99c574566da2383eba3dd8a4b6966",
    "sieve flemma --z 10 --r 2 --parity even --n-limit 2000":
        "49714c8c8d7498fc584d645da4aab0042c417bce7745d743627adb6cfff55db1",
    "sieve vector --trials 20000": "e23a6a65ee1aa844fba1f06ee6ea82782e096911bfe0de62bbd8e13daf6ced31",
    "sieve mertens --x 1000000 --epsilon 0.05": "2c8d99f19918e35ca5c7084815c9ecb52c4fc6febd1120793fb4ee9ef2026502",
    "expsum basic --A 1/7 --B 1/3 --lo 3 --hi 60": "f711ec5c7295344a34e2691a82cf693b660b956184fc7e968e8b48eb771ba161",
    "expsum lemma61 --h 2 --m 97 --r 13 --hi 60 --check-rewrite":
        "eb884a0570a2885e2226dd4830ee3f3d8c6b41a03ed6427817aebbe0e9e230a0",
    "expsum weyl --A 1/7 --B 0 --hi 300 --K 10": "314a49b9bee8a6924ecaae55893fb062a6c7364b0e1cea3d348be13d94b92363",
    "expsum scan --family random --count 4 --format jsonl":
        "a5f2b2d485ff2262dd007dae83856ba2ec6368fb325d6fc8ddb9c3c826fe7f60",
    # every scan family in both tabular formats: csv column order follows row key order
    "expsum scan --count 4 --format csv --family random":
        "85dc9f9e7046f2969ccf2a4bf1a22c8c3e8f3fddde25c0d07ada9c1a692d133e",
    "expsum scan --count 4 --family resonant --format jsonl":
        "48d1f318ebe5d23fcb7fce711b38549370fc03dbf93335fd4fac0e78b379fb86",
    "expsum scan --count 4 --family resonant --format csv":
        "93d836fb2ec9919b91ca4abee4b287bdb0e2d5eee371648298962bba3fb3c7d3",
    "expsum scan --count 4 --family lemma61 --format jsonl":
        "78c381fd371540f0ce7c363017167c35992a170304a32d72b4c1eaa83c3ff4a8",
    "expsum scan --count 4 --family lemma61 --format csv":
        "52b1d5b1b98c442c0c93539d7947bd7406657bab86dada390e3fb947d9701604",
    "expsum window --delta 1/1000 --J 4": "c232133901c93a66f87963bd12321b7a93795028d83f040e020d2b1badbbb2f5",
    "special enumerate --x 10000": "e55d7a1decb8247d07678df567c2e2cb3512bb1c619e2692bf5bc7063ec9883b",
    "special sigmas --x 10000 --delta 0.05": "559b6c49eeaaae44f2b0e90b53737344e163b7a27862620800323e8f88a6949d",
    "special hist --x 10000 --bins 20": "76bf263973ae9fed2b7662229400d618d1616ffc575e8eb7e3a6dcc8cb2c7337",
    "verify-all --list": "ec655bf1f7329c966825391b6e6fb1638aef850bdaf33c694b6206dc59a39ffd",
    # tables in json and csv, and a one-cell csv, frozen before every format
    # went through one row loop
    "special hist --x 10000 --bins 20 --format csv":
        "4d365615833720c381b57ab500f47a571eb173b665d9a6f0a04a26c13be5bb58",
    "rho --table --step 0.5": "0490eebc98a1420f4e90cc7ed05fe88aba991a56acf11dcfed5b0649f66be589",
    "rho --table --step 0.5 --format csv": "92ab0b6f7d983a21447778cdb82effbdb2858490ede9ed60958644ea405be36a",
    "alpha --format csv": "70ae023bcfe8a68a72377c9f0f81f5d07af3e536ccfb209fe632ff722f6d1a73",
}


@pytest.mark.parametrize("line", list(TOUR))
def test_tour_stdout_is_frozen(line, capsys):
    rc = cli.dispatch(shlex.split(line))
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TOUR[line]
