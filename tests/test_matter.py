import json

import pytest

from eqls.matter import RegistryError, de_boer, load_registry

# published de Boer parameters for the six bundled species
DE_BOER_TABLE = {
    "3He": 3.09, "4He": 2.68, "Ne": 0.59, "H2": 1.73, "HD": 1.41, "D2": 1.22,
}


class TestDeBoer:
    def test_published_values(self, registry):
        for name, expected in DE_BOER_TABLE.items():
            assert de_boer(registry.get_species(name)) == pytest.approx(
                expected, abs=0.01), name

    def test_decreasing_in_mass_at_fixed_lj(self, registry):
        # H2, HD, D2 share sigma and epsilon and differ only in mass
        values = [de_boer(registry.get_species(n)) for n in ("H2", "HD", "D2")]
        assert values[0] > values[1] > values[2]


class TestRegistry:
    def test_bundled_default_is_complete(self, registry):
        assert len(registry.species) == 6
        assert len(registry.surfaces) == 6
        assert all(s.reference is not None for s in registry.surfaces)

    def test_lookup_is_case_insensitive(self, registry):
        assert registry.get_surface("LIQUID 4HE").name == "liquid 4He"

    def test_lookup_by_unique_substring(self, registry):
        assert registry.get_surface("Ne").name == "solid Ne"

    def test_ambiguous_lookup_lists_candidates(self, registry):
        with pytest.raises(RegistryError, match="ambiguous"):
            registry.get_surface("He")

    def test_unknown_lookup_lists_known_names(self, registry):
        with pytest.raises(RegistryError) as err:
            registry.get_surface("unknownium")
        assert "solid Ne" in str(err.value)

    def _write(self, tmp_path, doc):
        path = tmp_path / "substances.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def _minimal(self):
        return {
            "species": [{"name": "Ne", "mass_amu": 20.18, "sigma_A": 2.749,
                         "epsilon_K": 35.6}],
            "surfaces": [{"name": "solid Ne", "number_density_A3": 0.046,
                          "scattering_length_A": 0.38, "dielectric_constant": 1.244,
                          "barrier_V0_eV": 0.7}],
        }

    def test_loads_user_file(self, tmp_path):
        reg = load_registry(self._write(tmp_path, self._minimal()))
        assert reg.get_surface("solid Ne").reference is None

    def test_duplicate_name_rejected(self, tmp_path):
        doc = self._minimal()
        doc["species"].append(dict(doc["species"][0]))
        with pytest.raises(RegistryError, match="duplicate species name 'Ne'"):
            load_registry(self._write(tmp_path, doc))

    def test_duplicate_is_case_insensitive(self, tmp_path):
        doc = self._minimal()
        dup = dict(doc["species"][0])
        dup["name"] = "NE"
        doc["species"].append(dup)
        with pytest.raises(RegistryError, match="duplicate"):
            load_registry(self._write(tmp_path, doc))

    def test_negative_density_names_field(self, tmp_path):
        doc = self._minimal()
        doc["surfaces"][0]["number_density_A3"] = -0.046
        with pytest.raises(RegistryError, match="number_density_A3"):
            load_registry(self._write(tmp_path, doc))

    def test_infinite_barrier_names_field(self, tmp_path):
        path = self._write(tmp_path, self._minimal())
        path.write_text(path.read_text().replace('"barrier_V0_eV": 0.7',
                                                 '"barrier_V0_eV": Infinity'))
        with pytest.raises(RegistryError, match=r"barrier_V0_eV = inf is outside \(0, inf\)"):
            load_registry(path)

    @pytest.mark.parametrize("value", [None, "heavy", [1.0]])
    def test_non_number_names_field(self, tmp_path, value):
        doc = self._minimal()
        doc["species"][0]["mass_amu"] = value
        with pytest.raises(RegistryError, match=r"species\[0\]: mass_amu = .* is not a number"):
            load_registry(self._write(tmp_path, doc))

    @pytest.mark.parametrize("kind", ["species", "surfaces"])
    @pytest.mark.parametrize("name", [None, 12, [1], ""])
    def test_name_must_be_a_non_empty_string(self, tmp_path, kind, name):
        doc = self._minimal()
        doc[kind][0]["name"] = name
        with pytest.raises(RegistryError, match=r"name .* is not a non-empty string"):
            load_registry(self._write(tmp_path, doc))

    def test_zero_reference_value_names_field(self, tmp_path):
        # a reference value divides its residual, so zero is refused at load
        doc = self._minimal()
        doc["surfaces"][0]["reference"] = {"E_z1_meV": 0.0, "E_z2_meV": -3.24, "dE_K": 165.0,
                                           "f_THz": 3.43, "z1_nm": 1.66, "z2_nm": 9.04}
        with pytest.raises(RegistryError, match=r"E_z1_meV = 0 is outside \(-inf, 0\)"):
            load_registry(self._write(tmp_path, doc))

    def test_missing_field_names_field(self, tmp_path):
        doc = self._minimal()
        del doc["surfaces"][0]["barrier_V0_eV"]
        with pytest.raises(RegistryError, match="barrier_V0_eV"):
            load_registry(self._write(tmp_path, doc))

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"species": [', encoding="utf-8")
        with pytest.raises(RegistryError, match="line"):
            load_registry(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(RegistryError, match="cannot read"):
            load_registry(tmp_path / "nope.json")
