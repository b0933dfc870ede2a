// The tests' reference JSON parser. The program writes JSON (serde::to_json:
// reports, traces, statusz) but never reads it; tests parse what it writes
// with this to check the documents' structure and values.
#pragma once

#include <string>

#include "serde/value.h"

namespace lfm::serde {

// Parse a JSON document into a Value; throws lfm::Error on malformed input
// or trailing content. Inverse of to_json up to the lossy encodings (bytes
// come back as their base64 strings, NaN/Inf came out as null). Numbers
// without '.' or an exponent that fit an int64 parse as Int; everything
// else numeric parses as Real.
Value from_json(const std::string& text);

}  // namespace lfm::serde
