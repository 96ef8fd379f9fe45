"""Unit tests for the checkpoint file format and its guard rails."""

import json

import pytest

from repro.checkpoint import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_SCHEMA_VERSION,
    load_checkpoint,
    restore_checkpoint,
)
from repro.core.glap import GlapConfig
from repro.experiments.runner import make_policy, resume_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.traces.google import GoogleTraceParams

SCENARIO = Scenario(
    n_pms=8,
    ratio=2,
    rounds=6,
    warmup_rounds=8,
    repetitions=1,
    trace_params=GoogleTraceParams(rounds_per_day=8),
)
GLAP_KW = {"config": GlapConfig(aggregation_rounds=3)}


def _checkpointed_run(tmp_path, policy_name="EcoCloud", **kw):
    ckpt = tmp_path / "ck.json"
    kwargs = GLAP_KW if policy_name == "GLAP" else {}
    result = run_policy(
        SCENARIO,
        make_policy(policy_name, **kwargs),
        SCENARIO.seed_of(0),
        checkpoint_path=ckpt,
        **kw,
    )
    return result, ckpt


class TestEnvelope:
    def test_schema_fields_present(self, tmp_path):
        _, ckpt = _checkpointed_run(tmp_path)
        payload = load_checkpoint(ckpt)
        assert payload["schema"] == CHECKPOINT_SCHEMA
        assert payload["schema_version"] == CHECKPOINT_SCHEMA_VERSION
        assert payload["policy"] == "EcoCloud"
        assert payload["progress"]["eval_rounds_done"] == SCENARIO.rounds

    def test_rejects_non_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_checkpoint(bad)

    def test_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "something-else", "schema_version": 1}))
        with pytest.raises(ValueError, match="schema"):
            load_checkpoint(bad)

    @pytest.mark.parametrize(
        "version, message",
        [
            (99, "schema_version 99 unsupported"),
            (3, r"sharded checkpoints \(schema_version 3\) are no longer supported"),
        ],
        ids=["future", "retired-v3"],
    )
    def test_rejects_future_schema_version(self, tmp_path, version, message):
        _, ckpt = _checkpointed_run(tmp_path)
        payload = json.loads(ckpt.read_text())
        payload["schema_version"] = version
        ckpt.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message) as excinfo:
            load_checkpoint(ckpt)
        assert str(ckpt) in str(excinfo.value)

    def test_rejects_missing_state_section(self, tmp_path):
        _, ckpt = _checkpointed_run(tmp_path)
        payload = json.loads(ckpt.read_text())
        del payload["state"]["placement"]
        ckpt.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="placement"):
            load_checkpoint(ckpt)

    def test_no_tmp_file_left_after_save(self, tmp_path):
        _checkpointed_run(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"]


class TestGuardRails:
    def test_checkpoint_every_without_path_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            run_policy(
                SCENARIO,
                make_policy("EcoCloud"),
                SCENARIO.seed_of(0),
                checkpoint_every=2,
            )

    def test_nonpositive_checkpoint_every_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            run_policy(
                SCENARIO,
                make_policy("EcoCloud"),
                SCENARIO.seed_of(0),
                checkpoint_every=0,
                checkpoint_path=tmp_path / "ck.json",
            )

    def test_policy_name_mismatch_rejected(self, tmp_path):
        _, ckpt = _checkpointed_run(tmp_path, policy_name="EcoCloud")
        with pytest.raises(ValueError, match="EcoCloud"):
            restore_checkpoint(ckpt, make_policy("PABFD"))

    def test_stateless_policy_rejects_foreign_state(self):
        from repro.baselines.base import ConsolidationPolicy

        class Dummy(ConsolidationPolicy):
            name = "dummy"

            def attach(self, dc, sim, streams, warmup_rounds):
                pass

            def step(self, dc, sim):
                pass

        with pytest.raises(ValueError):
            Dummy().load_state_dict({"surprise": 1})


def _to_v1(payload):
    """Rewrite a v2 payload's columnar state into the v1 per-object
    layout (the exact format version-1 builds wrote)."""
    state = payload["state"]
    pms = state["pms"]
    state["pms"] = [
        {
            "pm_id": i,
            "asleep": asleep,
            "active_seconds": active_s,
            "saturated_seconds": saturated_s,
        }
        for i, (asleep, active_s, saturated_s) in enumerate(
            zip(pms["asleep"], pms["active_seconds"], pms["saturated_seconds"])
        )
    ]
    vms = state["vms"]
    state["vms"] = [
        {
            "vm_id": i,
            "cpu_requested_mips_s": vms["cpu_requested_mips_s"][i],
            "cpu_degraded_mips_s": vms["cpu_degraded_mips_s"][i],
            "migrations": vms["migrations"][i],
            "monitor": {
                "current": vms["monitor_current"][i],
                "average": vms["monitor_average"][i],
                "count": vms["monitor_count"][i],
            },
        }
        for i in range(len(vms["monitor_count"]))
    ]
    payload["schema_version"] = 1
    return payload


class TestSchemaV1Compat:
    def test_v1_checkpoint_loads_and_reproduces_result(self, tmp_path):
        """A version-1 checkpoint (per-object PM/VM dicts) must restore
        bit-identically through the column converters."""
        base, ckpt = _checkpointed_run(tmp_path, policy_name="GLAP")
        v1 = _to_v1(json.loads(ckpt.read_text()))
        ckpt_v1 = tmp_path / "ck_v1.json"
        ckpt_v1.write_text(json.dumps(v1))
        assert load_checkpoint(ckpt_v1)["schema_version"] == 1
        resumed = resume_policy(ckpt_v1, make_policy("GLAP", **GLAP_KW))
        assert resumed.slavo == base.slavo
        assert resumed.slalm == base.slalm
        assert resumed.total_migrations == base.total_migrations
        assert resumed.dc_energy_j == base.dc_energy_j
        for name in base.series:
            assert list(base.series[name]) == list(resumed.series[name])


class TestFinalCheckpointResume:
    def test_resume_from_final_checkpoint_reproduces_result(self, tmp_path):
        """A final checkpoint (all rounds done) must restore and return the
        identical result without executing a single extra round — the
        crash-after-checkpoint-before-result window of a sweep worker."""
        base, ckpt = _checkpointed_run(tmp_path, policy_name="GLAP")
        resumed = resume_policy(ckpt, make_policy("GLAP", **GLAP_KW))
        assert resumed.slavo == base.slavo
        assert resumed.slalm == base.slalm
        assert resumed.total_migrations == base.total_migrations
        assert resumed.dc_energy_j == base.dc_energy_j
        for name in base.series:
            assert list(base.series[name]) == list(resumed.series[name])
