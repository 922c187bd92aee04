"""Admission-gate tests: every malformed request is rejected with a
typed, field-naming AdmissionError before any worker is involved."""

import pytest

from repro.errors import AdmissionError
from repro.faults import FaultPlan, clear_plan, install_plan
from repro.service.admission import MAX_PROGRAM_BYTES, AdmissionGate
from repro.service.requests import REQUEST_FIELDS, ExperimentRequest

GOOD_PROGRAM = """
ACT 0 0 0 100
PRE 0 0 0
"""

# Double activation without an intervening PRE: rule P001, severity
# error — the strict gate must reject it.
BAD_PROGRAM = """
ACT 0 0 0 100
ACT 0 0 0 101
"""


@pytest.fixture
def gate():
    return AdmissionGate()


class TestStructure:
    def test_minimal_request_admits_with_defaults(self, gate):
        request = gate.admit({"experiment_id": "fig05"})
        assert isinstance(request, ExperimentRequest)
        assert request.scale == 1.0
        assert request.fault_plan is None
        assert not request.verify_only

    def test_non_object_payload_rejected(self, gate):
        with pytest.raises(AdmissionError):
            gate.admit(["fig05"])

    def test_unknown_fields_name_the_valid_ones(self, gate):
        with pytest.raises(AdmissionError) as excinfo:
            gate.admit({"experiment_id": "fig05", "sclae": 0.5})
        assert excinfo.value.field == "sclae"
        assert "scale" in str(excinfo.value)  # the valid-field list

    def test_empty_request_rejected(self, gate):
        with pytest.raises(AdmissionError) as excinfo:
            gate.admit({})
        assert excinfo.value.field == "experiment_id"


class TestExperimentId:
    def test_unknown_id_carries_suggestions(self, gate):
        with pytest.raises(AdmissionError) as excinfo:
            gate.admit({"experiment_id": "fig5"})
        assert excinfo.value.field == "experiment_id"
        assert any(s.startswith("fig") for s in excinfo.value.suggestions)

    def test_non_string_id_rejected(self, gate):
        with pytest.raises(AdmissionError):
            gate.admit({"experiment_id": 5})


class TestScale:
    @pytest.mark.parametrize("scale", ["0.5", None, True, float("nan"),
                                       float("inf"), 0, -1, 100.0])
    def test_bad_scales_rejected(self, gate, scale):
        with pytest.raises(AdmissionError) as excinfo:
            gate.admit({"experiment_id": "fig05", "scale": scale})
        assert excinfo.value.field == "scale"

    def test_ceiling_is_configurable(self):
        gate = AdmissionGate(max_scale=0.5)
        with pytest.raises(AdmissionError):
            gate.admit({"experiment_id": "fig05", "scale": 1.0})
        assert gate.admit({"experiment_id": "fig05",
                           "scale": 0.5}).scale == 0.5


class TestTenant:
    def test_tenant_field_rejected(self, gate):
        """The service has one queue: a request naming a tenant is an
        unknown field, answered with the valid-field list."""
        with pytest.raises(AdmissionError) as excinfo:
            gate.admit({"experiment_id": "fig05", "tenant": "ci"})
        assert excinfo.value.field == "tenant"
        assert "valid fields: " + ", ".join(REQUEST_FIELDS) \
            in str(excinfo.value)


class TestFaultPlan:
    def test_valid_plan_admits(self, gate):
        request = gate.admit({"experiment_id": "fig05",
                              "fault_plan": {"seed": 3,
                                             "drop_rate": 0.01}})
        assert request.fault_plan == {"seed": 3, "drop_rate": 0.01}
        assert '"drop_rate": 0.01' in request.plan_spec()

    def test_unknown_plan_field_rejected_with_valid_keys(self, gate):
        with pytest.raises(AdmissionError) as excinfo:
            gate.admit({"experiment_id": "fig05",
                        "fault_plan": {"drop_rat": 0.01}})
        assert excinfo.value.field == "fault_plan"
        assert "drop_rate" in str(excinfo.value)

    def test_bad_plan_shape_rejected(self, gate):
        with pytest.raises(AdmissionError) as excinfo:
            gate.admit({"experiment_id": "fig05",
                        "fault_plan": {"stall_experiments": ["x"]}})
        assert excinfo.value.field == "fault_plan"

    def test_non_object_plan_rejected(self, gate):
        with pytest.raises(AdmissionError):
            gate.admit({"experiment_id": "fig05", "fault_plan": "chaos"})


class TestProgramGate:
    def test_clean_program_admits(self, gate):
        request = gate.admit({"program": GOOD_PROGRAM})
        assert request.verify_only

    def test_program_plus_experiment_is_not_verify_only(self, gate):
        request = gate.admit({"experiment_id": "fig05",
                              "program": GOOD_PROGRAM})
        assert not request.verify_only

    def test_protocol_violation_rejected_with_findings(self, gate):
        with pytest.raises(AdmissionError) as excinfo:
            gate.admit({"program": BAD_PROGRAM})
        assert excinfo.value.field == "program"
        assert excinfo.value.findings
        assert any("P001" in str(f) for f in excinfo.value.findings)

    def test_streaming_gate_stops_at_first_blocking_finding(self, gate):
        # The violation sits before a million-activation hammer; the
        # streaming gate must reject without walking the rest.
        from repro.lint.stream import TimingChecker

        program = BAD_PROGRAM + "LOOP 1000000\n  HAMMER 0 0 1 200 1\n" \
                                "ENDLOOP\n"
        commands = []
        original = TimingChecker.step

        def counting_step(self, command, path):
            commands.append(path)
            original(self, command, path)

        TimingChecker.step = counting_step
        try:
            with pytest.raises(AdmissionError) as excinfo:
                gate.admit({"program": program})
        finally:
            TimingChecker.step = original
        assert excinfo.value.field == "program"
        # Only the two ACTs were walked - never the loop body.
        assert len(commands) == 2

    def test_unassemblable_program_rejected(self, gate):
        with pytest.raises(AdmissionError) as excinfo:
            gate.admit({"program": "FROB 1 2 3"})
        assert excinfo.value.field == "program"

    def test_oversized_program_rejected_unparsed(self, gate):
        huge = "NOP\n" * (MAX_PROGRAM_BYTES // 4 + 1)
        with pytest.raises(AdmissionError) as excinfo:
            gate.admit({"program": huge})
        assert excinfo.value.field == "program"
        assert "bytes" in str(excinfo.value)


class TestCoalescingKey:
    def test_same_request_same_key(self, gate):
        a = gate.admit({"experiment_id": "fig05", "scale": 0.25})
        b = gate.admit({"experiment_id": "fig05", "scale": 0.25})
        assert a.coalescing_key() == b.coalescing_key()

    def test_plan_field_order_does_not_split_key(self, gate):
        a = gate.admit({"experiment_id": "fig05",
                        "fault_plan": {"seed": 1, "drop_rate": 0.1}})
        b = gate.admit({"experiment_id": "fig05",
                        "fault_plan": {"drop_rate": 0.1, "seed": 1}})
        assert a.coalescing_key() == b.coalescing_key()

    def test_ambient_plan_splits_key(self, gate):
        """A request without its own plan runs under the ambient one,
        so the key must change with it."""
        request = gate.admit({"experiment_id": "ext-temperature",
                              "scale": 0.05})
        plain = request.coalescing_key()
        install_plan(FaultPlan(seed=3, read_flip_rate=0.9))
        try:
            ambient = request.coalescing_key()
        finally:
            clear_plan()
        assert ambient != plain
        assert request.coalescing_key() == plain

    @pytest.mark.parametrize("other", [
        {"experiment_id": "fig07"},
        {"experiment_id": "fig05", "scale": 0.5},
        {"experiment_id": "fig05", "shard": "0/2"},
        {"experiment_id": "fig05", "fault_plan": {"seed": 9}},
    ])
    def test_different_work_different_key(self, gate, other):
        base = gate.admit({"experiment_id": "fig05"}).coalescing_key()
        assert gate.admit(other).coalescing_key() != base
