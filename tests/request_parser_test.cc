// RequestParser parses untrusted bytes that arrive in arbitrary pieces.
// These tests feed each request fixture split at every byte offset, and
// one byte at a time, and require exactly what feeding the whole buffer
// gives: the same parsed requests (or error), each reported at the same
// consumed stream offset.

#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "serve/http.h"

namespace ntw::serve {
namespace {

// What the parser reported, and how many bytes of the stream it had
// consumed when it did.
struct Event {
  std::string what;
  size_t consumed = 0;
  bool operator==(const Event&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Event& event) {
  return os << "{" << event.what << " @" << event.consumed << "}";
}

std::string Describe(const RequestParser& parser) {
  const HttpRequest& request = parser.request();
  std::string out = request.method + " " + request.target + " path=" +
                    request.path + " query=";
  for (const auto& [key, value] : request.query) out += key + "=" + value + ";";
  out += " headers=";
  for (const auto& [name, value] : request.headers) {
    out += name + ":" + value + ";";
  }
  out += " body=" + request.body;
  out += request.keep_alive ? " keep-alive" : " close";
  out += parser.expects_continue() ? " expect-100" : "";
  return out;
}

const HttpLimits kLimits{.max_header_bytes = 256, .max_body_bytes = 1024};

// Appends `wire` to a connection buffer in pieces ending at `cuts`
// (ascending, the last one wire.size()), parsing after each piece the way
// the server does: every complete request is taken and the parser reset;
// an error ends the connection.
std::vector<Event> Feed(std::string_view wire, const std::vector<size_t>& cuts) {
  RequestParser parser(kLimits);
  std::string in;
  size_t appended = 0;
  std::vector<Event> events;
  for (size_t cut : cuts) {
    in.append(wire.substr(appended, cut - appended));
    appended = cut;
    while (true) {
      RequestParser::Phase phase = parser.Consume(&in);
      // Bytes compacted out of the buffer plus the consumed prefix left.
      size_t consumed = appended - in.size() + parser.consumed();
      if (phase == RequestParser::Phase::kComplete) {
        events.push_back({Describe(parser), consumed});
        parser.Reset();
        continue;
      }
      if (phase == RequestParser::Phase::kError) {
        events.push_back({"error " + std::to_string(parser.error_status()) +
                              " " + parser.error_message(),
                          consumed});
        return events;
      }
      break;
    }
  }
  return events;
}

void ExpectSplitInvariant(std::string_view wire,
                          const std::vector<Event>& expected) {
  const std::vector<Event> whole = Feed(wire, {wire.size()});
  ASSERT_EQ(whole, expected);
  for (size_t split = 0; split <= wire.size(); ++split) {
    ASSERT_EQ(Feed(wire, {split, wire.size()}), whole) << "split at " << split;
  }
  std::vector<size_t> steps;
  for (size_t i = 1; i <= wire.size(); ++i) steps.push_back(i);
  EXPECT_EQ(Feed(wire, steps), whole) << "1-byte steps";
}

TEST(RequestParserTest, SimpleGet) {
  const std::string wire =
      "GET /extract?site=a%20b&attribute=name HTTP/1.1\r\nHost: x\r\n\r\n";
  ExpectSplitInvariant(
      wire, {{"GET /extract?site=a%20b&attribute=name path=/extract "
              "query=site=a b;attribute=name; headers=host:x; body= "
              "keep-alive",
              wire.size()}});
}

TEST(RequestParserTest, PostWithContentLength) {
  const std::string wire =
      "POST /extract_batch HTTP/1.1\r\nContent-Length: 11\r\n"
      "Connection: close\r\n\r\nhello world";
  ExpectSplitInvariant(
      wire, {{"POST /extract_batch path=/extract_batch query= "
              "headers=content-length:11;connection:close; body=hello world "
              "close",
              wire.size()}});
}

TEST(RequestParserTest, ThreePipelinedRequests) {
  const std::string first = "GET /healthz HTTP/1.1\r\n\r\n";
  const std::string second =
      "POST /extract_batch HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc";
  const std::string third = "GET /metrics?x HTTP/1.0\n\n";  // Bare LF.
  const std::string wire = first + second + third;
  ExpectSplitInvariant(
      wire,
      {{"GET /healthz path=/healthz query= headers= body= keep-alive",
        first.size()},
       {"POST /extract_batch path=/extract_batch query= "
        "headers=content-length:3; body=abc keep-alive",
        first.size() + second.size()},
       {"GET /metrics?x path=/metrics query=x=; headers= body= close",
        wire.size()}});
}

TEST(RequestParserTest, ExpectContinue) {
  const std::string head =
      "POST /extract_batch HTTP/1.1\r\nExpect: 100-continue\r\n"
      "Content-Length: 5\r\n\r\n";
  const std::string wire = head + "abcde";
  ExpectSplitInvariant(
      wire, {{"POST /extract_batch path=/extract_batch query= "
              "headers=expect:100-continue;content-length:5; body=abcde "
              "keep-alive expect-100",
              wire.size()}});
  // The server answers 100 Continue as soon as the header block is in,
  // before any body byte: the parser must say so at exactly that point.
  for (size_t split = 0; split <= head.size(); ++split) {
    RequestParser parser(kLimits);
    std::string in = head.substr(0, split);
    EXPECT_EQ(parser.Consume(&in), RequestParser::Phase::kNeedMore);
    bool complete = split == head.size();
    EXPECT_EQ(parser.headers_complete(), complete) << "split at " << split;
    EXPECT_EQ(parser.expects_continue(), complete) << "split at " << split;
  }
}

TEST(RequestParserTest, OversizeHeader) {
  const std::string first = "GET /a HTTP/1.1\r\n\r\n";
  const std::string wire = first + "GET /b HTTP/1.1\r\nX-Pad: " +
                           std::string(300, 'p') + "\r\n\r\n";
  ExpectSplitInvariant(
      wire, {{"GET /a path=/a query= headers= body= keep-alive", first.size()},
             {"error 431 header block exceeds 256 bytes", first.size()}});
}

TEST(RequestParserTest, MalformedRequestLine) {
  const std::string first = "GET /a HTTP/1.1\r\n\r\n";
  const std::string bad = "GARBAGE\r\nHost: x\r\n\r\n";
  const std::string wire = first + bad + "GET /c HTTP/1.1\r\n\r\n";
  // The header block is consumed before the request line is rejected.
  ExpectSplitInvariant(
      wire, {{"GET /a path=/a query= headers= body= keep-alive", first.size()},
             {"error 400 malformed request line", first.size() + bad.size()}});
}

}  // namespace
}  // namespace ntw::serve
