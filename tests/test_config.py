"""Config parsing, validation, and canonical round-trips."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vpfuse.config import (
    PROJECTOR_KINDS,
    SCHEMA,
    STRATEGIES,
    ConfigError,
    default_config,
    parse_config,
)
from vpfuse.model import FusionModel
from vpfuse.projectors import compute_token_budget, validate_alignment


def test_empty_file_gives_desk_defaults_with_aligned_budgets():
    cfg = parse_config("")
    budgets = compute_token_budget(cfg)
    assert [b.count for b in budgets] == [128, 128, 128]
    assert validate_alignment(budgets) is None


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("video.gird = 16")


def test_type_error_rejected():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("video.grid = banana")


def test_range_check():
    with pytest.raises(ConfigError, match="positive"):
        parse_config("train.batch = 0")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("video.grid = 16\nvideo.grid = 16")


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nvideo.grid = 16  # trailing\n")
    assert cfg["video.grid"] == 16


def test_misaligned_stride_raises_naming_stc():
    cfg = parse_config("stc.stride = 2,2,2")
    with pytest.raises(ConfigError, match="stc"):
        FusionModel(cfg, seed=0)


def test_misaligned_profile_parseable_without_validation():
    cfg = parse_config("stc.stride = 2,2,2")
    mismatch = validate_alignment(compute_token_budget(cfg))
    assert "stc" in mismatch


def test_serialize_parse_is_canonical_and_idempotent():
    text = "video.grid = 16\ntrain.lr = 0.001  # tweak\n"
    cfg = parse_config(text)
    canon = cfg.serialize()
    again = parse_config(canon).serialize()
    assert canon == again
    assert "train.lr = 0.001" in canon


def test_replace_override():
    cfg = default_config().replace(train__seed=9, train__strategy="average")
    assert cfg["train.seed"] == 9
    assert cfg["train.strategy"] == "average"
    with pytest.raises(ConfigError):
        cfg.replace(nope__key=1)


def test_replace_rejects_bool_for_int_key():
    # True would serialize as "train.batch = true", which parse_config rejects.
    with pytest.raises(ConfigError, match="train.batch: expected int, got bool"):
        default_config().replace(train__batch=True)


@pytest.mark.parametrize("text", ["inf", "1e400"])
def test_non_finite_float_rejected(text):
    with pytest.raises(ConfigError, match="train.lr: must be finite, got inf"):
        parse_config(f"train.lr = {text}")


@pytest.mark.parametrize("override, line, match", [
    ({"video__grid": 15}, "video.grid = 15", "not divisible"),
    ({"projectors__active": ("image", "bogus")}, "projectors.active = image,bogus",
     "not among slots"),
    ({"stc__stride": (1.5, 1, 1)}, "stc.stride = 1.5,1,1", "int3"),
], ids=["grid", "active", "stride"])
def test_replace_runs_the_structural_checks(override, line, match):
    # replace rejects what parse_config rejects, so no Config serializes to
    # text that does not parse.
    with pytest.raises(ConfigError, match=match):
        parse_config(line)
    with pytest.raises(ConfigError, match=match):
        default_config().replace(**override)


def test_bad_strategy_rejected():
    with pytest.raises(ConfigError, match="one of"):
        parse_config("train.strategy = sometimes")


def test_slot_labels_unique_for_stacked_kinds():
    cfg = default_config().replace(
        projectors__kinds=("image", "image", "image"),
        projectors__active=("image0", "image1", "image2"))
    assert cfg.slot_labels() == ("image0", "image1", "image2")
    assert cfg.active_slots() == (0, 1, 2)


def test_active_subset_must_name_slots():
    with pytest.raises(ConfigError, match="active"):
        parse_config("projectors.active = imgg")
    with pytest.raises(ConfigError, match="at least one slot"):
        default_config().replace(projectors__active=()).active_slots()


def test_repeated_active_label_rejected():
    # A repeat would be dropped by active_slots() but kept by serialize().
    with pytest.raises(ConfigError, match="each label may be listed once, got 'image,image'"):
        parse_config("projectors.active = image,image")
    with pytest.raises(ConfigError, match="listed once"):
        default_config().replace(projectors__active=("stc", "com", "stc"))


@st.composite
def valid_configs(draw):
    """A config with a random subset of keys set to random in-range values."""
    overrides = {}
    for key in draw(st.sets(st.sampled_from(sorted(SCHEMA)))):
        kind = SCHEMA[key].kind
        if key == "train.strategy":
            value = draw(st.sampled_from(STRATEGIES))
        elif key == "projectors.kinds":
            value = tuple(draw(st.lists(st.sampled_from(PROJECTOR_KINDS),
                                        min_size=3, max_size=3)))
        elif key == "projectors.active":
            continue  # drawn below from the slot labels of the drawn kinds
        elif kind == "int":
            value = draw(st.integers(1, 64))
        elif key in ("train.beta1", "train.beta2"):
            value = draw(st.floats(0.0, 1.0, exclude_max=True))
        elif kind == "float":
            value = draw(st.floats(0.0, 1.0))
        else:  # int3
            value = tuple(draw(st.lists(st.integers(1, 3), min_size=3, max_size=3)))
        overrides[key.replace(".", "__")] = value
    # replace checks the grid and the active slots, so both are drawn valid.
    grid, patch = (overrides.get(f"video__{k}", SCHEMA[f"video.{k}"].default)
                   for k in ("grid", "patch"))
    assume(grid % patch == 0)
    kinds = overrides.get("projectors__kinds", SCHEMA["projectors.kinds"].default)
    labels = [k if kinds.count(k) == 1 else f"{k}{i}" for i, k in enumerate(kinds)]
    active = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    return default_config().replace(projectors__active=tuple(active), **overrides)


@settings(max_examples=200, deadline=None)
@given(valid_configs(), st.randoms(use_true_random=False))
def test_serialize_parse_idempotent_over_random_configs(cfg, random):
    canon = cfg.serialize()
    assert parse_config(canon).serialize() == canon
    # The same settings in another order, spacing and with comments.
    lines = [f"  {line.replace(' = ', '=', 1)}\t# set\n" for line in canon.splitlines()]
    random.shuffle(lines)
    assert parse_config("".join(lines)).serialize() == canon
