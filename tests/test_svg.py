"""SVG chart rendering."""

import pytest

from repro.experiments.svg import grouped_bar_chart

DATA = {
    "base": {"KM": 1.0, "LUD": 1.0},
    "apres": {"KM": 1.02, "LUD": 1.39},
}


class TestGroupedBarChart:
    def test_valid_svg_document(self):
        svg = grouped_bar_chart(DATA, title="t")
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")

    def test_one_bar_per_series_category(self):
        svg = grouped_bar_chart(DATA)
        assert svg.count("<rect") == 4 + len(DATA)  # bars + legend swatches

    def test_titles_embed_values(self):
        svg = grouped_bar_chart(DATA)
        assert "apres / LUD: 1.390" in svg

    def test_escapes_markup(self):
        svg = grouped_bar_chart({"a<b": {"x&y": 1.0}}, title="<t>")
        assert "a&lt;b" in svg
        assert "x&amp;y" in svg
        assert "&lt;t&gt;" in svg

    def test_baseline_reference_line(self):
        svg = grouped_bar_chart(DATA, baseline=1.0)
        assert "stroke-dasharray" in svg

    def test_no_baseline(self):
        svg = grouped_bar_chart(DATA, baseline=None)
        assert "stroke-dasharray" not in svg

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            grouped_bar_chart({})

    def test_zero_values_ok(self):
        svg = grouped_bar_chart({"s": {"a": 0.0}})
        assert "<rect" in svg
