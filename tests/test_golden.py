"""Golden output digests: a fixed set of small CLI runs, each pinned by its
exit code, its stderr text and the SHA-256 of every file it writes.

A change that alters an output byte must update GOLDEN and say why in
CHANGES.md.  `PYTHONPATH=src python tests/test_golden.py` prints GOLDEN for the
current code.
"""

import contextlib
import hashlib
import io
import json
import logging
import os
import tempfile

import pytest

from sgdmc.cli import main

DW = [0.25, 0.0, -0.5, 0.0, 0.25]


def _split(lam):
    return [[0.25, lam, -0.5, 0.0, 0.25], [0.25, -lam, -0.5, 0.0, 0.25]]


DW_CONFIG = {"objective": DW, "lambda": 0.38, "eta": 0.33}
# the double well split with lambda 0.2 in x1 (two wells) and 0.55 in x2 (one)
MIXED_CONFIG = {"dimension": 2, "n": 2, "components": [_split(0.2), _split(0.55)],
                "eta": 0.2, "x0": [-0.3, 0.1]}
CUBE_CONFIG = {"dimension": 3, "n": 2, "components": [_split(0.2), _split(0.55), _split(0.3)],
               "eta": 0.1}
# the benchmark's 2-d product double well (dw2d-grid): at grid 40 its basins
# take the faces with one joint function solved
PRODUCT_CONFIG = {"dimension": 2, "n": 2, "components": [_split(0.38)] * 2, "eta": 0.33}
# the eighth-order objective (three rectangles at lambda 0.5)
EIGHTH_CONFIG = {"objective": [0.0, 0.0, 0.0, 0.0, 2.8431, 0.0, -2.9354000000000005, 0.0, 0.78],
                 "lambda": 0.5, "eta": 0.02}
# x^4/4 - x^3/3 has a touch root at 0, which x^2/2 - x/2 covers in R
TOUCH_CONFIG = {"dimension": 1, "n": 2,
                "components": [[[0, 0, 0, -1 / 3, 0.25], [0, -0.5, 0.5]]], "eta": 0.1}

CASES = {
    "analyze-1d": (DW_CONFIG, ["analyze", "--grid", "500"]),
    "analyze-2d": (MIXED_CONFIG, ["analyze", "--grid", "100"]),
    "analyze-eighth": (EIGHTH_CONFIG, ["analyze", "--grid", "200"]),
    "analyze-touch-root": (TOUCH_CONFIG, ["analyze", "--grid", "200"]),
    "invariant-1d": (DW_CONFIG, ["invariant", "--grid", "500"]),
    "invariant-2d": (MIXED_CONFIG, ["invariant", "--grid", "60"]),
    "invariant-2d-product": (PRODUCT_CONFIG, ["invariant", "--grid", "40", "--dump-operator"]),
    # dense grids stop at two dimensions: invariant refuses, sample histograms
    "invariant-3d": (CUBE_CONFIG, ["invariant", "--grid", "32"]),
    "basins-1d": (DW_CONFIG, ["basins", "--grid", "500"]),
    # basins-1d takes the banded solve (n=272, w=51); at 1000 cells it
    # iterates (93 steps)
    "basins-1d-iterated": (DW_CONFIG, ["basins", "--grid", "1000"]),
    "basins-2d": (MIXED_CONFIG, ["basins", "--grid", "60"]),
    "basins-2d-product": (PRODUCT_CONFIG, ["basins", "--grid", "40"]),
    "sample-1d": (DW_CONFIG, ["sample", "--grid", "200", "--steps", "20000", "--seed", "3",
                              "--compare-invariant"]),
    "sample-2d": (MIXED_CONFIG, ["sample", "--grid", "50", "--steps", "20000", "--seed", "3"]),
    "sample-3d": (CUBE_CONFIG, ["sample", "--grid", "32", "--steps", "2000", "--seed", "1"]),
    "diffusion-1d": (DW_CONFIG, ["diffusion", "--grid", "500"]),
    "sweep": (DW_CONFIG, ["sweep", "--range", "0.1:1.0:40"]),
    # the benchmark's own range
    "sweep-400": (DW_CONFIG, ["sweep", "--range", "0.1:1.0:400"]),
    "sweep-eighth": (EIGHTH_CONFIG, ["sweep", "--range", "0.3:8.0:40"]),
    # no range point falls between the 3->2 and the 2->1 change
    "sweep-eighth-coarse": (EIGHTH_CONFIG, ["sweep", "--range", "0.3:8.0:3"]),
    "sweep-eighth-narrow": (EIGHTH_CONFIG, ["sweep", "--range", "1.0:2.5:2"]),
    "inadmissible-eta": ({**DW_CONFIG, "eta": 0.9}, ["analyze", "--grid", "100"]),
    # x^4 / 1e150: the cube of F' +- lambda's root bound 2.5e149 overflows
    "coefficient-range": ({**DW_CONFIG, "objective": [0.25, 0, -0.5, 0, 1e-150], "eta": 0.01},
                          ["analyze", "--grid", "100"]),
    "sweep-coefficient-range": ({"objective": [0.25, 0, -0.5, 0, 1e-150]},
                                ["sweep", "--range", "0.1:1:3"]),
    # x^4 * 1e-310: the root bound of F' +- lambda, 1 + 1 / 4e-310, overflows
    "coefficient-subnormal-lead": ({**DW_CONFIG, "objective": [0.25, 0, -0.5, 0, 1e-310],
                                    "eta": 0.01}, ["analyze", "--grid", "100"]),
}

# per case: exit code, file digests and stderr text
GOLDEN = {
    "analyze-1d": {
        "exit": 0,
        "files": {
            "report.json": "688d0061f4dd23bc427ebc7d8506fdf45c6bd91dbbefe343e2aa8306e8a327cd"
        },
        "stderr": ""
    },
    "analyze-2d": {
        "exit": 0,
        "files": {
            "report.json": "cdb6b66968c7cab832264bc15a999cf4e04fd5ae76777a5c94f28a0d5a7d8668"
        },
        "stderr": ""
    },
    "analyze-eighth": {
        "exit": 0,
        "files": {
            "report.json": "255bb2d77803d91d7ed060be789a200f1b3d0c7317c532e1fc4295b9c795b3de"
        },
        "stderr": ""
    },
    "analyze-touch-root": {
        "exit": 0,
        "files": {
            "report.json": "7d5291341e3c686a2b47a09af6eefa66dd3d29b5b4631100df5f663196b00e10"
        },
        "stderr": ""
    },
    "basins-1d": {
        "exit": 0,
        "files": {
            "basin_0.csv": "d4f19c30a0641363b6a6d1d8b7ce090d6e21fa0f7529fc2d7794a40d992d13e5",
            "basin_1.csv": "15b2d32d9022e6f6f4b705d2347df1f8068702f43229cef5b49330d1f60d8afe",
            "basins.json": "f6a0a47612b86fe21e9ea0addf7789bbd34ec284fa68ad85147e9379f6dc3c80"
        },
        "stderr": ""
    },
    "basins-1d-iterated": {
        "exit": 0,
        "files": {
            "basin_0.csv": "0a6df15a0e411990b20c35e8888268482d225838ab53bb58ab1e1ce3e1aa4cfe",
            "basin_1.csv": "633e1e4edc4e934a2c4e481e725aecbe84cc65a5cf144ca6a4982cb7eeb54d47",
            "basins.json": "ba8b6000c0c2b2c69208ecfc264194f804db6dbfea6a84422c56b0436613ef63"
        },
        "stderr": ""
    },
    "basins-2d": {
        "exit": 0,
        "files": {
            "basin_0.csv": "cc64912cf3c6db6102ae6976c347915acc930917bd997a56b0f01986a6a9e40d",
            "basin_1.csv": "41da2aebcbe69d261343598c733e7f28fc112caac0a3cb6470d5e9a745e25f71",
            "basins.json": "5f0d5ee65ff1a6190d27e44b74c4c879f84c3428c2d1372de3b71b9392276e00"
        },
        "stderr": ""
    },
    "basins-2d-product": {
        "exit": 0,
        "files": {
            "basin_0.csv": "b9e7c4571409baa41ce3e461bb67b8890e0d1b0c6120732210b41ef73c181782",
            "basin_1.csv": "53e91c21b04f88ae208133ed4ce98e675564266ce6be7968c62edcd85bd58b0c",
            "basin_2.csv": "027d2e50bcdfc9b5a8633a75a814d0c783c3b5ca35e9a2d9314f387f8a09c82f",
            "basin_3.csv": "db8cdf083a6239b87afacdda32870786aa807761dbd674df5e5db0089ef8957d",
            "basins.json": "014217b133b28cc26b40a4d4dddda53ce9bc9f5b8c2dfec4fdabb86fb3568778"
        },
        "stderr": ""
    },
    "coefficient-range": {
        "exit": 1,
        "files": {},
        "stderr": "config error: coefficients span too wide a range for double precision: isolating the real roots of [0.38, -1.0, 0.0, 4e-150] overflows at |x| = 2.5e+149\n"
    },
    "coefficient-subnormal-lead": {
        "exit": 1,
        "files": {},
        "stderr": "config error: coefficients span too wide a range for double precision: isolating the real roots of [0.38, -1.0, 0.0, 4e-310] overflows in the root bound\n"
    },
    "diffusion-1d": {
        "exit": 0,
        "files": {
            "diffusion.csv": "f32ffd655af6650322bb4b7ad6cc93beac0c410e44babc9c9990b7b9e78508fa",
            "diffusion.json": "658a9e85739a14c513aaf0b06bc418b10b1af42d0556a6716fa6150cbad0395b"
        },
        "stderr": ""
    },
    "inadmissible-eta": {
        "exit": 2,
        "files": {},
        "stderr": "assumption violation: step size eta=0.9 is not in (0, 1/K) with 1/K=0.334596978976074\n"
    },
    "invariant-1d": {
        "exit": 0,
        "files": {
            "invariant.json": "e02b98f29e4a339881edeeb5398885effd91f00a8aac18f7fddc3dce4b8d5e4c",
            "invariant_0.csv": "23c40f908384e15e8ed40e4e6890f08283f4ac1b21d1b8a1ca27757002a6a66f",
            "invariant_1.csv": "8fd3ea000d1d84770a1e69dcf47fca5ecc6c7925c6ca4aa0787c82fc398c611e"
        },
        "stderr": ""
    },
    "invariant-2d": {
        "exit": 0,
        "files": {
            "invariant.json": "63ce8899b7f55e660b2f39723524943e2aa0efbd945eeb8c802bfbefea05cfe2",
            "invariant_0.csv": "662923f314890aff79cbee8c52412d34c6dd75507c871cd9cb3baca82aa1da3d",
            "invariant_1.csv": "4ec76644b7d504a2b286b07e2ce0e801a9c2f19bafb3e10e797fcf94c4764e4f"
        },
        "stderr": ""
    },
    "invariant-2d-product": {
        "exit": 0,
        "files": {
            "invariant.json": "e4204b3276926e5171fe562885464b4916dda029da6f06bc8746096913d97ec3",
            "invariant_0.csv": "ff039116323c287622f7fbbb708e129e905bc4556be073c84706f736fba81969",
            "invariant_1.csv": "d42ef11d2119b0386297bccbf4831fc315d071e4b2834e9bc0d652ebe85116c1",
            "invariant_2.csv": "2d777c78eadc0e0895affad91fea8c787e23885dda7b7c504b0b6539ef5b6bf0",
            "invariant_3.csv": "1e8f2708be4ac16bb150209f24aea96ebf8985b5054b05f0123a4fa2899e65d6",
            "operator.txt": "5bdc2a037a77204bf95711c1b8ccd5ddd5a45d26c05db9be970df3640a4d7332"
        },
        "stderr": ""
    },
    "invariant-3d": {
        "exit": 1,
        "files": {},
        "stderr": "config error: invariant needs a dense grid, offered up to two dimensions; sample gives a trajectory histogram\n"
    },
    "sample-1d": {
        "exit": 0,
        "files": {
            "sample.csv": "de584e5caab0c755c6b8692ce2cb329dd4c931d17002bb23bbffb909754d35e6",
            "sample.json": "404ec4a15b950e27a486740ea8e2c1c85256e2912d91587f17a94137eba90ed4"
        },
        "stderr": ""
    },
    "sample-2d": {
        "exit": 0,
        "files": {
            "sample.json": "4ca117a92415db574eae6b34f71ab35be44ceeb01b751ea3cd281b9bd9fb341b",
            "sample_dim0.csv": "0bfb380736ec29079caa31221c7b8d599c099dea8a21a6eb4c880900f5557a6d",
            "sample_dim1.csv": "a7b1b326cafe2e992d27bc5fde85df8820b071c40cf7dd4e1d330bbc10406609"
        },
        "stderr": ""
    },
    "sample-3d": {
        "exit": 0,
        "files": {
            "sample.json": "193a0f7f3dfbda17c7333395909212a08b7d1894b19ffc2c538ac20abe624d05",
            "sample_dim0.csv": "9bad3c8d4731b753c3aec3409ccce11444f0705681460748cbeae2942fe25dd9",
            "sample_dim1.csv": "af082e9f4618178338689b95ef79e1a174425e1ca11629fa505c03a8050cfa5b",
            "sample_dim2.csv": "3e9319dae258d38cbee6fe45515b551370a99b416cc6da4458c80ec3f6315314"
        },
        "stderr": ""
    },
    "sweep": {
        "exit": 0,
        "files": {
            "sweep.csv": "2b7f45194b3c73fee5be9a6cd6b22cdd4202d1ed4870e79c36184d3e5862b1a9"
        },
        "stderr": ""
    },
    "sweep-400": {
        "exit": 0,
        "files": {
            "sweep.csv": "245683f9fd683adbba3c7c3352ba31d2dd3d38767b9974fb1ddc6b56c6c75959"
        },
        "stderr": ""
    },
    "sweep-coefficient-range": {
        "exit": 1,
        "files": {},
        "stderr": "config error: coefficients span too wide a range for double precision: isolating the real roots of [1.0, -1.0, 0.0, 4e-150] overflows at |x| = 2.5e+149\n"
    },
    "sweep-eighth": {
        "exit": 0,
        "files": {
            "sweep.csv": "adf9c713318c14600d67321408b859727f602dd29c294f04535070bd0d810402"
        },
        "stderr": ""
    },
    "sweep-eighth-coarse": {
        "exit": 0,
        "files": {
            "sweep.csv": "bc812a3907dc30c37d7c269624ce75ebecee8921bc4963e9abaf4b8a86582a12"
        },
        "stderr": ""
    },
    "sweep-eighth-narrow": {
        "exit": 0,
        "files": {
            "sweep.csv": "24b6a1dff04c9fa65076da9e47d78099ec243575ef46686d9ac27b0b09a09c7d"
        },
        "stderr": ""
    }
}


def run_case(config, argv) -> dict:
    """Run one command in this process; return its exit code, its stderr text
    (log records in logging's basic format, then printed lines) and the
    SHA-256 of each output file."""
    logger = logging.getLogger("sgdmc")
    records = io.StringIO()
    handler = logging.StreamHandler(records)
    handler.setFormatter(logging.Formatter(logging.BASIC_FORMAT))
    saved_level, saved_propagate = logger.level, logger.propagate
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    logger.propagate = False
    printed = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out = os.path.join(tmp, "out")
        try:
            with contextlib.redirect_stderr(printed):
                code = main([argv[0], "--config", cfg, "--out", out, *argv[1:]])
        finally:
            logger.removeHandler(handler)
            logger.setLevel(saved_level)
            logger.propagate = saved_propagate
        files = {}
        if os.path.isdir(out):
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    files[name] = hashlib.sha256(fh.read()).hexdigest()
    return {"exit": code, "stderr": records.getvalue() + printed.getvalue(), "files": files}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(case):
    assert run_case(*CASES[case]) == GOLDEN[case]


if __name__ == "__main__":
    digests = {case: run_case(*CASES[case]) for case in sorted(CASES)}
    print("GOLDEN = " + json.dumps(digests, indent=4, sort_keys=True))
