"""Canonical document schema round-trips."""

from pathlib import Path

import numpy as np
import pytest
import yaml

from specpert import cli, serialize
from specpert.geometry import Box, PackingConfig, SupportFamily, SupportSet, interval_set
from specpert.lattice import CouplingSeq, Grid, build_laplacian
from specpert.potentials import GaussianBump, PotentialFamily, PotentialTerm
from specpert.serialize import SchemaError


class TestGridRoundTrip:
    def test_roundtrip(self):
        g = Grid(extent=((0.0, 1.0), (0.0, 2.0)), points=(4, 5))
        assert serialize.grid_from_dict(serialize.grid_to_dict(g)) == g

    def test_version_check(self):
        doc = serialize.grid_to_dict(Grid(extent=((0, 1),), points=(4,)))
        doc["schema"] = 99
        with pytest.raises(SchemaError):
            serialize.grid_from_dict(doc)


class TestOperatorText:
    def test_roundtrip(self):
        h0 = build_laplacian(Grid(extent=((0.0, 1.0),), points=(6,)))
        text = serialize.operator_to_coo_text(h0)
        back = serialize.operator_from_coo_text(text)
        assert back.hermitian
        assert (back.matrix != h0.matrix).nnz == 0

    def test_missing_header(self):
        with pytest.raises(SchemaError):
            serialize.operator_from_coo_text("0 0 1.0 0.0\n")


class TestGeometryDocs:
    def test_family_roundtrip(self):
        fam = SupportFamily((interval_set(0, 2), interval_set(1, 3)))
        back = serialize.family_from_dict(serialize.family_to_dict(fam))
        assert back == fam

    def test_packing_roundtrip(self):
        cfg = PackingConfig(centers=np.array([[0.0], [3.0]]), A=1.0)
        back = serialize.packing_from_dict(serialize.packing_to_dict(cfg))
        np.testing.assert_array_equal(back.centers, cfg.centers)
        assert back.A == cfg.A


class TestPotentialDocs:
    def test_term_roundtrip_via_dict(self):
        doc = {
            "profile": {"kind": "gaussian", "center": [1.0], "width": 0.5},
            "support": [[[0.0, 2.0]]],
        }
        term = serialize.term_from_dict(doc)
        assert isinstance(term.profile, GaussianBump)
        assert term.support == SupportSet((Box((0.0,), (2.0,)),))

    def test_unknown_profile_kind(self):
        with pytest.raises(SchemaError):
            serialize.profile_from_dict({"kind": "mystery"})


class TestCouplingDocs:
    def test_roundtrip_complex(self):
        beta = CouplingSeq((1.0, 1j), p=2)
        back = serialize.coupling_from_dict(serialize.coupling_to_dict(beta))
        assert back.values == beta.values
        assert back.p == beta.p

    def test_inf_p_spelled_out(self):
        doc = serialize.coupling_to_dict(CouplingSeq((1.0,), p=np.inf))
        assert doc["p"] == "inf"


class TestCanonicalYaml:
    def test_sorted_and_native(self):
        doc = {"b": np.float64(1.5), "a": np.int64(2), "c": [np.bool_(True)]}
        text = serialize.dump_canonical(doc)
        assert text.index("a:") < text.index("b:") < text.index("c:")
        assert "np." not in text

    def test_malformed_yaml(self):
        with pytest.raises(SchemaError):
            serialize.load_document("a: [unclosed")

    def test_python_tags_refused(self):
        # Documents are read by a safe loader, which constructs no Python
        # objects beyond plain data.
        with pytest.raises(SchemaError):
            serialize.load_document("a: !!python/tuple [1, 2]")


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
class TestLibyaml:
    """libyaml's loader and dumper against PyYAML's pure-Python ones."""

    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        """The report.yaml text of each shipped scenario."""
        out = tmp_path_factory.mktemp("reports")
        texts = {}
        for path in sorted(SCENARIOS.glob("*.yaml")):
            cli.execute_scenario(cli.load_scenario(path), out / path.stem)
            texts[path.stem] = (out / path.stem / "report.yaml").read_text()
        return texts

    def test_loaders_agree(self, reports):
        texts = [p.read_text() for p in sorted(SCENARIOS.glob("*.yaml"))]
        assert len(texts) == len(reports) == 3
        for text in texts + list(reports.values()):
            doc = yaml.load(text, Loader=yaml.SafeLoader)
            assert serialize.load_document(text) == doc
            assert yaml.load(text, Loader=yaml.CSafeLoader) == doc

    def test_dumpers_agree(self, reports):
        docs = [serialize.load_document(text) for text in reports.values()]
        docs += [serialize.load_document(p.read_text()) for p in sorted(SCENARIOS.glob("*.yaml"))]
        for doc in docs + [cli.SCENARIO_SCHEMA]:
            text = serialize.dump_canonical(doc)
            assert text == yaml.safe_dump(doc, sort_keys=True, default_flow_style=False)
            assert text == yaml.dump(doc, Dumper=yaml.CSafeDumper, sort_keys=True,
                                     default_flow_style=False)
        for text in reports.values():
            assert serialize.dump_canonical(serialize.load_document(text)) == text

    @pytest.mark.parametrize("text", ["a: [unclosed\n", "a: [1, 2\nb: 3\n",
                                      "key: value\n  bad: indent\n", "a: 'x",
                                      "\tkey: v\n", "a: &x 1\nb: *y\n"])
    def test_malformed_yaml_marks(self, text):
        # libyaml words the problem differently but marks the same place.
        # (A flow collection cut off with no final line break it marks at
        # the start of the next line, not the end of the last.)
        with pytest.raises(yaml.YAMLError) as pure:
            yaml.load(text, Loader=yaml.SafeLoader)
        with pytest.raises(SchemaError) as exc:
            serialize.load_document(text)
        mark = exc.value.__cause__.problem_mark
        assert (mark.line, mark.column) == (pure.value.problem_mark.line,
                                            pure.value.problem_mark.column)
