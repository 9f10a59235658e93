"""Property tests: one fault in a valid sample-list file raises DatasetError with its path.

The three sample-list formats (cube manifest, pairs manifest, scene file)
share one validator. Each example starts from a valid document, applies one
fault (a wrong type, a missing key, an out-of-range class, a non-string tag,
an unknown split hint or a bad class name) and expects DatasetError naming the
file and, for a per-sample fault, the sample's index. Any other exception
fails the test.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cvradar.ctensor import ComplexTensor
from cvradar.dsp import DatasetError, parse_scene_file, write_rfc1
from cvradar.traincli import load_pairs

_CLASSES = ["a", "b"]
_TAGS = {"distance_tag": "d1", "split_hint": "auto"}, {"distance_tag": "d2", "split_hint": "unseen"}
_REFLECTOR = [0.3, 0.1, 0.0, 1.0, 0.0]

# format: (loader, list key, path keys, valid document)
FORMATS = {
    "manifest": (load_pairs, "samples", ("path",), {
        "version": 1, "classes": _CLASSES, "shape": [2, 2, 4],
        "samples": [{"path": f"s{c}.rfc1", "class": c, **_TAGS[c]} for c in (0, 1)],
    }),
    "pairs": (load_pairs, "samples", ("iq", "fft"), {
        "version": 1, "kind": "pairs", "classes": _CLASSES,
        "samples": [{"iq": f"s{c}.rfc1", "fft": f"s{1 - c}.rfc1", "class": c, **_TAGS[c]}
                    for c in (0, 1)],
    }),
    "scenes": (parse_scene_file, "scenes", (), {
        "version": 1, "classes": _CLASSES,
        "config": {"center_frequency": 64e9, "bandwidth": 4e9,
                   "n_tx": 2, "n_rx": 2, "fast_time_samples": 16},
        "scenes": [{"class": c, "reflectors": [_REFLECTOR], "noise_level": 0.05, "seed": c,
                    **_TAGS[c]} for c in (0, 1)],
    }),
}

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)
_NOT_STR = _JSON.filter(lambda v: not isinstance(v, str))


@st.composite
def faulty_docs(draw):
    """(format, document with one fault, text the error must name besides the path).

    That text is the faulty key of the document, or the index of the faulty sample.
    """
    fmt = draw(st.sampled_from(sorted(FORMATS)))
    _, list_key, path_keys, doc = FORMATS[fmt]
    doc = copy.deepcopy(doc)
    doc_keys = ["version", "classes", list_key] + (["config"] if fmt == "scenes" else [])
    i = draw(st.integers(0, len(doc[list_key]) - 1))
    sample = doc[list_key][i]
    faults = ["doc-missing", "doc-type", "class-name", "sample-type", "sample-missing",
              "class-type", "class-range", "tag", "hint"] + (["path-type"] if path_keys else [])
    fault = draw(st.sampled_from(faults))
    key = draw(st.sampled_from(doc_keys))
    if fault == "doc-missing":
        del doc[key]
    elif fault == "doc-type":
        # a scalar other than the integer 1 is wrong for every document key:
        # version needs that 1, classes and the sample list an array, config an object
        doc[key] = draw(
            _JSON.filter(lambda v: not isinstance(v, (list, dict)) and not (type(v) is int and v == 1))
        )
    elif fault == "class-name":
        key = "classes"
        if draw(st.booleans()):
            doc["classes"] = []
        else:
            doc["classes"][draw(st.integers(0, 1))] = draw(_NOT_STR | st.just(""))
    else:
        if fault == "sample-type":
            doc[list_key][i] = draw(_JSON.filter(lambda v: not isinstance(v, dict)))
        elif fault == "sample-missing":
            del sample[draw(st.sampled_from(("class",) + path_keys))]
        elif fault == "class-type":
            sample["class"] = draw(_JSON.filter(lambda v: type(v) is not int))
        elif fault == "class-range":
            sample["class"] = draw(st.integers().filter(lambda v: not 0 <= v < len(_CLASSES)))
        elif fault == "path-type":
            sample[draw(st.sampled_from(path_keys))] = draw(_NOT_STR | st.just(""))
        elif fault == "tag":
            sample["distance_tag"] = draw(_NOT_STR)
        elif fault == "hint":
            sample["split_hint"] = draw(_JSON.filter(lambda v: v not in ("auto", "unseen")))
        return fmt, doc, f"{list_key}[{i}]"
    return fmt, doc, key


def _write_cubes(directory):
    rng = np.random.default_rng(0)
    for c in (0, 1):
        write_rfc1(directory / f"s{c}.rfc1",
                   ComplexTensor(rng.standard_normal((2, 2, 4)), rng.standard_normal((2, 2, 4))))


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_valid_document_loads(tmp_path, fmt):
    loader, _, _, doc = FORMATS[fmt]
    _write_cubes(tmp_path)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    loader(str(path))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=faulty_docs())
def test_one_fault_raises_dataset_error_with_path(tmp_path, case):
    fmt, doc, where = case
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError) as info:
        FORMATS[fmt][0](str(path))
    assert str(path) in str(info.value)
    assert where in str(info.value)
