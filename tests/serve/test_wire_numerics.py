"""Bad numbers on the wire are client errors: a 400, never a 500.

Regression pins for inputs that used to escape validation and surface
as ``internal`` 500s from deep inside the solver:

- ``"rho": Infinity`` (Python's ``json`` accepts it) raised
  ``OverflowError`` while snapping ``rho`` to an integer;
- ``"rho": 1e308`` and ``"num_periods": 10**30`` parsed, then
  overflowed inside ``solve()``;
- ``"num_periods": null`` raised ``TypeError`` in the parser.

Each is checked at the parser and over HTTP, for solve, simulate and
session creation.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.serve import schemas

from .conftest import solve_body

#: Problem-field overrides that must be refused with invalid-instance.
#: ``discharge_time``/``recharge_time`` cases drop ``rho``.
BAD_PROBLEMS = {
    "rho-inf": {"rho": math.inf},
    "rho-minus-inf": {"rho": -math.inf},
    "rho-nan": {"rho": math.nan},
    "rho-1e308": {"rho": 1e308},
    "rho-1e19": {"rho": 1e19},
    "rho-1e-300": {"rho": 1e-300},
    "rho-subnormal": {"rho": 5e-324},
    "rho-huge-int": {"rho": 10**400},
    "rho-over-slot-cap": {"rho": float(schemas.MAX_SLOTS_PER_PERIOD)},
    "times-inf": {"rho": None, "discharge_time": 1.0, "recharge_time": math.inf},
    "times-ratio-overflow": {
        "rho": None, "discharge_time": 1e-308, "recharge_time": 1e308,
    },
    "periods-1e30": {"num_periods": 10**30},
    "periods-over-cap": {"num_periods": schemas.MAX_PERIODS + 1},
    "periods-null": {"num_periods": None},
}


def bad_problem(name: str) -> dict:
    problem = dict(solve_body()["problem"])
    for field, value in BAD_PROBLEMS[name].items():
        if value is None and field == "rho":
            problem.pop("rho")
        else:
            problem[field] = value
    return problem


class TestParser:
    @pytest.mark.parametrize("name", sorted(BAD_PROBLEMS))
    def test_solve_request_refused(self, name):
        with pytest.raises(schemas.WireError) as caught:
            schemas.parse_solve_request({"problem": bad_problem(name)})
        assert caught.value.code == "invalid-instance"

    @pytest.mark.parametrize("name", ["rho-inf", "periods-null"])
    def test_session_create_refused(self, name):
        with pytest.raises(schemas.WireError) as caught:
            schemas.parse_session_create({"problem": bad_problem(name)})
        assert caught.value.code == "invalid-instance"

    def test_caps_are_inclusive(self):
        problem = dict(solve_body()["problem"])
        problem["rho"] = float(schemas.MAX_SLOTS_PER_PERIOD - 1)
        problem["num_periods"] = schemas.MAX_PERIODS
        parsed, _method, _seed = schemas.parse_solve_request(
            {"problem": problem}
        )
        assert parsed.slots_per_period == schemas.MAX_SLOTS_PER_PERIOD
        assert parsed.num_periods == schemas.MAX_PERIODS

    def test_dense_regime_slot_cap(self):
        # rho < 1 has 1 + 1/rho slots per period.
        problem = dict(solve_body()["problem"])
        problem["rho"] = 1.0 / schemas.MAX_SLOTS_PER_PERIOD
        with pytest.raises(schemas.WireError) as caught:
            schemas.parse_solve_request({"problem": problem})
        assert caught.value.code == "invalid-instance"


class TestOverHttp:
    @pytest.mark.parametrize("name", sorted(BAD_PROBLEMS))
    def test_solve_is_a_structured_400(self, service_client, name):
        _, client = service_client
        raw = json.dumps({"problem": bad_problem(name)}).encode("utf-8")
        status, body, _ = client.post("/v1/solve", None, raw=raw)
        assert status == 400, body
        assert body["kind"] == "repro-error"
        assert body["error"]["code"] == "invalid-instance"

    @pytest.mark.parametrize("path", ["/v1/simulate", "/v1/session"])
    @pytest.mark.parametrize("name", ["rho-inf", "periods-1e30"])
    def test_other_endpoints_are_structured_400s(
        self, service_client, path, name
    ):
        _, client = service_client
        raw = json.dumps({"problem": bad_problem(name)}).encode("utf-8")
        status, body, _ = client.post(path, None, raw=raw)
        assert status == 400, body
        assert body["error"]["code"] == "invalid-instance"
