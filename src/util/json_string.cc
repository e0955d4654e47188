#include "util/json_string.h"

#include <cstdio>

namespace cirank {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(raw);
        }
    }
  }
  out->push_back('"');
}

std::string JsonString(std::string_view s) {
  std::string out;
  AppendJsonString(&out, s);
  return out;
}

}  // namespace cirank
