#include "serve/http.h"

#include <algorithm>

#include "common/obs_export.h"
#include "common/strings.h"
#include "obs/json.h"

namespace ntw::serve {

namespace {

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Strips one trailing '\r' (header lines are split on '\n'; both CRLF
/// and bare-LF framing are accepted).
std::string_view StripCr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

}  // namespace

std::string HttpRequest::QueryParam(std::string_view name) const {
  for (const auto& [key, value] : query) {
    if (key == name) return value;
  }
  return "";
}

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 100: return "Continue";
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

HttpResponse ErrorResponse(int status, const std::string& message) {
  obs::JsonWriter json;
  BeginSchemaDocument(json, "ntw-serve-error", 1);
  json.KV("status", static_cast<int64_t>(status));
  json.KV("error", message);
  json.EndObject();
  HttpResponse response;
  response.status = status;
  response.body = json.Take() + "\n";
  return response;
}

void SerializeResponseHead(const HttpResponse& response, bool keep_alive,
                           std::string* out) {
  *out += "HTTP/1.1 ";
  *out += std::to_string(response.status);
  *out += ' ';
  *out += ReasonPhrase(response.status);
  *out += "\r\nContent-Type: ";
  *out += response.content_type;
  *out += "\r\nContent-Length: ";
  *out += std::to_string(response.body.size());
  *out += "\r\nConnection: ";
  *out += keep_alive ? "keep-alive" : "close";
  *out += "\r\n\r\n";
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out;
  out.reserve(response.body.size() + 128);
  SerializeResponseHead(response, keep_alive, &out);
  out += response.body;
  return out;
}

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  UrlDecodeTo(s, &out);
  return out;
}

void UrlDecodeTo(std::string_view s, std::string* out) {
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      *out += ' ';
    } else if (s[i] == '%' && i + 2 < s.size() && HexValue(s[i + 1]) >= 0 &&
               HexValue(s[i + 2]) >= 0) {
      *out += static_cast<char>(HexValue(s[i + 1]) * 16 + HexValue(s[i + 2]));
      i += 2;
    } else {
      *out += s[i];
    }
  }
}

void RequestParser::Reset() {
  // Clear contents but keep every buffer's capacity (including the header
  // and query slot strings, which ParseHeaderBlock overwrites in place):
  // a keep-alive connection parses its steady-state traffic without
  // allocating.
  request_.method.clear();
  request_.target.clear();
  request_.path.clear();
  request_.body.clear();
  request_.keep_alive = true;
  headers_complete_ = false;
  expects_continue_ = false;
  saw_bytes_ = false;
  content_length_ = 0;
  error_status_ = 0;
  error_message_.clear();
  phase_ = Phase::kNeedMore;
}

RequestParser::Phase RequestParser::Fail(int status, std::string message) {
  phase_ = Phase::kError;
  error_status_ = status;
  error_message_ = std::move(message);
  return phase_;
}

RequestParser::Phase RequestParser::ParseHeaderBlock(std::string_view block) {
  // A block without a newline is a request line with no header fields
  // ("GET / HTTP/1.0" followed directly by the blank line).
  size_t line_end = block.find('\n');
  std::string_view request_line = StripCr(block.substr(0, line_end));
  size_t sp1 = request_line.find(' ');
  size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) {
    return Fail(400, "malformed request line");
  }
  request_.method.assign(request_line.substr(0, sp1));
  request_.target.assign(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  std::string_view version = request_line.substr(sp2 + 1);
  if (!version.starts_with("HTTP/1.")) {
    return Fail(505, "unsupported protocol version");
  }
  request_.keep_alive = version != "HTTP/1.0";
  if (request_.method.empty() || request_.target.empty() ||
      request_.target[0] != '/') {
    return Fail(400, "malformed request line");
  }

  // Split target into decoded path + query parameters. Query slots are
  // overwritten in place and trimmed at the end, so their string capacity
  // survives from request to request on a keep-alive connection.
  std::string_view target = request_.target;
  size_t qmark = target.find('?');
  request_.path.clear();
  UrlDecodeTo(target.substr(0, qmark), &request_.path);
  size_t query_count = 0;
  if (qmark != std::string_view::npos) {
    std::string_view pairs = target.substr(qmark + 1);
    while (!pairs.empty()) {
      size_t amp = pairs.find('&');
      std::string_view pair =
          amp == std::string_view::npos ? pairs : pairs.substr(0, amp);
      pairs = amp == std::string_view::npos ? std::string_view()
                                            : pairs.substr(amp + 1);
      if (pair.empty()) continue;
      size_t eq = pair.find('=');
      if (query_count == request_.query.size()) request_.query.emplace_back();
      auto& [key, value] = request_.query[query_count];
      key.clear();
      UrlDecodeTo(pair.substr(0, eq), &key);
      value.clear();
      if (eq != std::string_view::npos) {
        UrlDecodeTo(pair.substr(eq + 1), &value);
      }
      // A repeated name keeps its first position and the last value, the
      // semantics a map assignment had.
      bool duplicate = false;
      for (size_t i = 0; i < query_count; ++i) {
        if (request_.query[i].first == key) {
          std::swap(request_.query[i].second, value);
          duplicate = true;
          break;
        }
      }
      if (!duplicate) ++query_count;
    }
  }
  request_.query.resize(query_count);

  // Header fields, with the same in-place slot reuse as the query list.
  std::string_view rest = line_end == std::string_view::npos
                              ? std::string_view()
                              : block.substr(line_end + 1);
  size_t header_count = 0;
  while (!rest.empty()) {
    size_t eol = rest.find('\n');
    std::string_view line =
        StripCr(eol == std::string_view::npos ? rest : rest.substr(0, eol));
    rest = eol == std::string_view::npos ? std::string_view() : rest.substr(eol + 1);
    if (line.empty()) continue;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      request_.headers.resize(header_count);
      return Fail(400, "malformed header field");
    }
    if (header_count == request_.headers.size()) {
      request_.headers.emplace_back();
    }
    auto& [name, value] = request_.headers[header_count];
    name.assign(StripWhitespace(line.substr(0, colon)));
    for (char& c : name) c = AsciiToLower(c);
    if (name.empty()) {
      request_.headers.resize(header_count);
      return Fail(400, "malformed header field");
    }
    value.assign(StripWhitespace(line.substr(colon + 1)));
    bool duplicate = false;
    for (size_t i = 0; i < header_count; ++i) {
      if (request_.headers[i].first == name) {
        std::swap(request_.headers[i].second, value);
        duplicate = true;
        break;
      }
    }
    if (!duplicate) ++header_count;
  }
  request_.headers.resize(header_count);

  if (const std::string* connection = request_.FindHeader("connection")) {
    std::string value = ToLower(*connection);
    if (value == "close") request_.keep_alive = false;
    if (value == "keep-alive") request_.keep_alive = true;
  }
  const std::string* expect = request_.FindHeader("expect");
  if (expect != nullptr && ToLower(*expect) == "100-continue") {
    expects_continue_ = true;
  }

  if (request_.FindHeader("transfer-encoding") != nullptr) {
    return Fail(501, "transfer-encoding is not supported");
  }
  if (const std::string* length = request_.FindHeader("content-length")) {
    const std::string& digits = *length;
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos ||
        digits.size() > 18) {
      return Fail(400, "malformed content-length");
    }
    content_length_ = static_cast<size_t>(std::stoll(digits));
    if (content_length_ > limits_.max_body_bytes) {
      return Fail(413, "request body exceeds " +
                           std::to_string(limits_.max_body_bytes) + " bytes");
    }
  } else if (request_.method == "POST" || request_.method == "PUT") {
    return Fail(411, "content-length is required");
  }
  headers_complete_ = true;
  return Phase::kNeedMore;
}

RequestParser::Phase RequestParser::Consume(std::string* in) {
  if (phase_ == Phase::kError || phase_ == Phase::kComplete) return phase_;
  // The caller may have replaced or cleared the buffer (error paths);
  // never let the consumed prefix point past it.
  if (offset_ > in->size()) offset_ = in->size();
  // Lazy compaction: drop the consumed prefix only when it is the whole
  // buffer (free) or has grown large, so pipelined parsing is offset
  // arithmetic instead of a per-request front-erase memmove.
  if (offset_ > 0) {
    if (offset_ == in->size()) {
      in->clear();
      offset_ = 0;
    } else if (offset_ > (size_t{1} << 18)) {
      in->erase(0, offset_);
      offset_ = 0;
    }
  }
  std::string_view pending(in->data() + offset_, in->size() - offset_);
  if (!pending.empty()) saw_bytes_ = true;
  if (!headers_complete_) {
    // Find the blank line terminating the header block; accept CRLF or
    // bare LF framing (split lines tolerate a dangling '\r').
    size_t end = pending.find("\r\n\r\n");
    size_t skip = 4;
    size_t lf = pending.find("\n\n");
    if (lf != std::string_view::npos &&
        (end == std::string_view::npos || lf < end)) {
      end = lf;
      skip = 2;
    }
    if (end == std::string_view::npos) {
      if (pending.size() > limits_.max_header_bytes) {
        return Fail(431, "header block exceeds " +
                             std::to_string(limits_.max_header_bytes) +
                             " bytes");
      }
      return Phase::kNeedMore;
    }
    if (end + skip > limits_.max_header_bytes) {
      return Fail(431, "header block exceeds " +
                           std::to_string(limits_.max_header_bytes) +
                           " bytes");
    }
    Phase parsed = ParseHeaderBlock(pending.substr(0, end));
    offset_ += end + skip;
    pending.remove_prefix(end + skip);
    if (parsed == Phase::kError) return phase_;
  }
  if (pending.size() < content_length_) return Phase::kNeedMore;
  request_.body.assign(pending.data(), content_length_);
  offset_ += content_length_;
  phase_ = Phase::kComplete;
  return phase_;
}

}  // namespace ntw::serve
