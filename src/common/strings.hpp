// Small string utilities used by the text protocols (SIP, RTSP, SOAP/HTTP
// framing) and by XGSP addressing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gmmcs {

/// Splits on a single character; empty fields are kept.
std::vector<std::string> split(std::string_view s, char sep);
/// Splits on a character, keeping at most max_parts (last part holds the rest).
std::vector<std::string> split_n(std::string_view s, char sep, std::size_t max_parts);
/// Splits into lines on "\r\n" or "\n".
std::vector<std::string> split_lines(std::string_view s);
/// Strips leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);
/// ASCII lower-casing.
std::string to_lower(std::string_view s);
/// Case-insensitive ASCII comparison (SIP/RTSP header names).
bool iequals(std::string_view a, std::string_view b);
bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);
/// Joins parts with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Non-throwing bounded numeric parses for wire-derived text — the
/// sanctioned alternative to std::sto*/atoi/strtol, which either throw on
/// hostile input or silently accept garbage prefixes. The whole input
/// must be digits (leading whitespace is not skipped — trim() first);
/// empty input, stray characters, and overflow past `max` all yield
/// nullopt.
std::optional<std::uint64_t> parse_u64(std::string_view s,
                                       std::uint64_t max = UINT64_MAX);
std::optional<std::uint32_t> parse_u32(std::string_view s,
                                       std::uint32_t max = UINT32_MAX);
std::optional<std::uint16_t> parse_u16(std::string_view s);
std::optional<std::uint8_t> parse_u8(std::string_view s);
/// Signed variant: one optional leading '-' then digits; range-checked.
std::optional<std::int32_t> parse_i32(std::string_view s);
/// Hex digits only, no 0x prefix (XML character entities: &#xHHHH;).
std::optional<std::uint64_t> parse_hex_u64(std::string_view s,
                                           std::uint64_t max = UINT64_MAX);
/// Finite decimal floating point (no locale, no exceptions).
std::optional<double> parse_f64(std::string_view s);

}  // namespace gmmcs
