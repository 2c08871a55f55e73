#pragma once
// JSON string escaping shared by every hand-written JSON writer (campaign
// results, serve responses and events, lint reports, chaos verdicts).

#include <string>
#include <string_view>

namespace hemo {

/// Escapes `text` for use between the quotes of a JSON string: `"` and
/// `\` are backslash-escaped, newline, tab and carriage return become
/// `\n`, `\t` and `\r`, and every other byte below 0x20 becomes `\u00XX`.
/// Bytes from 0x80 up pass through unchanged (UTF-8 stays UTF-8).
std::string json_escape(std::string_view text);

}  // namespace hemo
