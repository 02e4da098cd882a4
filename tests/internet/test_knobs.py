"""The uniform env-knob contract every toggleable component shares.

One parsing rule (``repro.internet.knobs``), consumed by every
``*_enabled`` resolver — the spelling matrix is pinned once here so a
new component cannot quietly accept a different dialect.
"""

import os
import pathlib
import re

import pytest

from repro.internet import knobs

KNOB = "REPRO_TEST_KNOB"

ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestSpellings:
    @pytest.mark.parametrize("raw", [
        "0", "false", "no", "off",
        "FALSE", "No", "OFF", "False",
        " 0 ", "\toff\n", "  NO",
    ])
    def test_disabling_spellings(self, monkeypatch, raw):
        monkeypatch.setenv(KNOB, raw)
        assert knobs.knob(KNOB) is False
        assert knobs.knob(KNOB, default=False) is False

    @pytest.mark.parametrize("raw", [
        "1", "true", "yes", "on", "ON", "enabled", "2", "anything",
    ])
    def test_enabling_spellings(self, monkeypatch, raw):
        monkeypatch.setenv(KNOB, raw)
        assert knobs.knob(KNOB) is True
        assert knobs.knob(KNOB, default=False) is True

    @pytest.mark.parametrize("default", [True, False])
    def test_unset_means_default(self, monkeypatch, default):
        monkeypatch.delenv(KNOB, raising=False)
        assert knobs.knob(KNOB, default=default) is default

    @pytest.mark.parametrize("raw", ["", "   ", "\t"])
    def test_empty_means_default(self, monkeypatch, raw):
        monkeypatch.setenv(KNOB, raw)
        assert knobs.knob(KNOB, default=True) is True
        assert knobs.knob(KNOB, default=False) is False


class TestResolveKnob:
    @pytest.mark.parametrize("env_raw", ["0", "1"])
    def test_explicit_override_beats_environment(self, monkeypatch,
                                                 env_raw):
        monkeypatch.setenv(KNOB, env_raw)
        assert knobs.resolve_knob(KNOB, True) is True
        assert knobs.resolve_knob(KNOB, False) is False

    def test_none_defers_to_environment(self, monkeypatch):
        monkeypatch.setenv(KNOB, "off")
        assert knobs.resolve_knob(KNOB, None) is False
        monkeypatch.setenv(KNOB, "on")
        assert knobs.resolve_knob(KNOB, None) is True

    def test_none_and_unset_means_default(self, monkeypatch):
        monkeypatch.delenv(KNOB, raising=False)
        assert knobs.resolve_knob(KNOB, None, default=True) is True
        assert knobs.resolve_knob(KNOB, None, default=False) is False


class TestForced:
    def test_pins_and_restores_unset(self, monkeypatch):
        monkeypatch.delenv(KNOB, raising=False)
        with knobs.forced(KNOB, False):
            assert os.environ[KNOB] == "0"
            assert knobs.knob(KNOB) is False
        assert KNOB not in os.environ

    def test_restores_previous_value(self, monkeypatch):
        monkeypatch.setenv(KNOB, "off")
        with knobs.forced(KNOB, True):
            assert os.environ[KNOB] == "1"
        assert os.environ[KNOB] == "off"

    def test_restores_on_raise(self, monkeypatch):
        monkeypatch.setenv(KNOB, "yes")
        with pytest.raises(RuntimeError):
            with knobs.forced(KNOB, False):
                raise RuntimeError("boom")
        assert os.environ[KNOB] == "yes"


class TestForcedMany:
    OTHER = "REPRO_TEST_KNOB_2"

    def test_pins_several_and_restores(self, monkeypatch):
        monkeypatch.setenv(KNOB, "off")
        monkeypatch.delenv(self.OTHER, raising=False)
        with knobs.forced_many({KNOB: True, self.OTHER: False}):
            assert os.environ[KNOB] == "1"
            assert os.environ[self.OTHER] == "0"
        assert os.environ[KNOB] == "off"
        assert self.OTHER not in os.environ

    def test_restores_on_raise(self, monkeypatch):
        monkeypatch.setenv(KNOB, "1")
        monkeypatch.setenv(self.OTHER, "no")
        with pytest.raises(ValueError):
            with knobs.forced_many({KNOB: False, self.OTHER: True}):
                raise ValueError("boom")
        assert os.environ[KNOB] == "1"
        assert os.environ[self.OTHER] == "no"


class TestRefactoredSitesShareTheRule:
    """The pre-existing resolvers all accept the full spelling set now
    that they route through ``repro.internet.knobs``."""

    @pytest.mark.parametrize("raw", ["0", "off", "FALSE", " no "])
    def test_fastpath_enabled(self, monkeypatch, raw):
        from repro.simnet.fastpath import FASTPATH_ENV, fastpath_enabled

        monkeypatch.setenv(FASTPATH_ENV, raw)
        assert fastpath_enabled() is False
        assert fastpath_enabled(True) is True

    @pytest.mark.parametrize("raw", ["0", "off", "FALSE", " no "])
    def test_revocation_enabled(self, monkeypatch, raw):
        from repro.scion.revocation import REVOCATION_ENV, revocation_enabled

        monkeypatch.setenv(REVOCATION_ENV, raw)
        assert revocation_enabled() is False
        assert revocation_enabled(True) is True

    @pytest.mark.parametrize("raw", ["0", "off", "FALSE", " no "])
    def test_snapshot_cache_enabled(self, monkeypatch, raw):
        from repro.internet.snapshot import SNAPSHOT_CACHE_ENV, cache_enabled

        monkeypatch.setenv(SNAPSHOT_CACHE_ENV, raw)
        assert cache_enabled() is False
        assert cache_enabled(True) is True


class TestReadmeKnobTable:
    def test_every_documented_knob_is_defined(self):
        """A knob deleted from the code cannot linger in README's
        "Runtime knobs" table: each row must name a ``*_ENV`` constant
        defined somewhere under ``src/repro``."""
        readme = (ROOT / "README.md").read_text()
        section = readme.split("## Runtime knobs", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\| `(REPRO_[A-Z_]+)", section, re.MULTILINE)
        defined = set()
        for path in (ROOT / "src" / "repro").rglob("*.py"):
            defined.update(re.findall(r'^\w+_ENV = "(REPRO_[A-Z_]+)"',
                                      path.read_text(), re.MULTILINE))
        assert documented, "no knob rows found in README 'Runtime knobs'"
        assert sorted(set(documented) - defined) == []
