"""JSON-compatible form of experiment results."""

from repro.experiments.export import to_jsonable


class TestToJsonable:
    def test_dataclass(self):
        from repro.core.cost import hardware_cost

        data = to_jsonable(hardware_cost())
        assert data["llt_bytes"] == 192

    def test_nested(self):
        assert to_jsonable({"a": (1, 2), "b": {"c": [3]}}) == {
            "a": [1, 2], "b": {"c": [3]}
        }

    def test_int_keys_become_strings(self):
        assert to_jsonable({10: 1.5}) == {"10": 1.5}
