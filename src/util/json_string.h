// JSON string escaping, shared by the observability exports (obs/) and the
// serving layer's renderers (serve/json.h), which both sit above util/.
#ifndef CIRANK_UTIL_JSON_STRING_H_
#define CIRANK_UTIL_JSON_STRING_H_

#include <string>
#include <string_view>

namespace cirank {

// Appends `s` as a quoted JSON string, escaping quotes, backslashes, and
// control characters (non-ASCII bytes pass through as UTF-8).
void AppendJsonString(std::string* out, std::string_view s);

// The same, returned as a new string, for stream-style renderers.
std::string JsonString(std::string_view s);

}  // namespace cirank

#endif  // CIRANK_UTIL_JSON_STRING_H_
