// JSON export of Values — for logs, reports, and interchange with tools
// outside the pickle path. Bytes render as base64 strings; NaN/Inf render as
// null (JSON has no representation for them).
#pragma once

#include <string>

#include "serde/value.h"

namespace lfm::serde {

std::string to_json(const Value& value);

// Base64 used for bytes payloads (standard alphabet, padded).
std::string base64_encode(const Bytes& data);

}  // namespace lfm::serde
