// JSON export of Values — for logs, reports, and interchange with tools
// outside the pickle path. Bytes render as base64 strings; NaN/Inf render as
// null (JSON has no representation for them).
#pragma once

#include <string>

#include "serde/value.h"

namespace lfm::serde {

std::string to_json(const Value& value);

// Parse a JSON document back into a Value; throws lfm::Error on malformed
// input or trailing content. Inverse of to_json up to the lossy encodings
// (bytes come back as their base64 strings, NaN/Inf came out as null).
// Numbers without '.' or an exponent that fit an int64 parse as Int;
// everything else numeric parses as Real.
Value from_json(const std::string& text);

// Base64 used for bytes payloads (standard alphabet, padded).
std::string base64_encode(const Bytes& data);

}  // namespace lfm::serde
