// serve: a closed loop against the in-process sharded HttpServer.
//
// Two reactor shards with connections placed round-robin by the accept
// relay; one client thread drives four keep-alive connections without
// pipelining — each connection sends its next request as soon as it has
// read the previous response, like crawl feeders and batch jobs that wait
// for their reply. The corpus is a seeded DEALERS subset (8 sites, 30
// records per page); wrappers are learned from ground truth (XPath
// `name`, LR `name_lr`, `phone_lr`, `zip_lr`), and the request mix,
// fixed by the seed, blends single-attribute LR, single-attribute XPath
// and `attribute=*` requests. The latter go to a second key per site that
// holds only its LR wrappers, so every attribute of them is in the fused
// scan and none takes a per-attribute path.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/compiled_wrapper.h"
#include "core/lr_inductor.h"
#include "core/wrapper_store.h"
#include "core/xpath_inductor.h"
#include "datasets/dealers.h"
#include "html/serializer.h"
#include "html/stream_page.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wrapper_repository.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ntw::StrFormat;

constexpr int kShards = 2;
constexpr int kConnections = 4;
// Set-ups are timed in fresh processes, as a deployment pays them:
// kSetupRepeats before the gates and kSetupsPerSegment between every two
// measured segments of kSegmentSeconds, so the set-up samples span the
// same stretch of time as the latency windows and both see the machine in
// the same state.
constexpr int kSetupRepeats = 4;
constexpr int kSetupsPerSegment = 2;
constexpr double kSegmentSeconds = 2.0;
constexpr size_t kSequenceLength = 8192;
// Request mix: shares of single-attribute LR and XPath requests; the rest
// are attribute=* requests.
constexpr double kLrShare = 0.4;
constexpr double kXPathShare = 0.4;

struct Learned {
  const char* truth;
  const char* attribute;
  bool xpath;
};
// Ascending attribute order, the order attribute=* responses use.
constexpr Learned kLearned[] = {
    {"name", "name", true},
    {"name", "name_lr", false},
    {"phone", "phone_lr", false},
    {"zip", "zip_lr", false},
};

/// The key that holds only a site's LR wrappers: the target of its
/// attribute=* requests.
std::string LrKey(const std::string& key) { return key + "_lr"; }

// ---------------------------------------------------------------------
// prepare
// ---------------------------------------------------------------------

}  // namespace

int PrepareServe(const Args& args) {
  ntw::datasets::DealersConfig config;
  config.num_sites = 8;
  config.min_records = 30;
  config.max_records = 30;
  config.seed = args.seed;
  ntw::datasets::Dataset dealers = ntw::datasets::MakeDealers(config);
  ntw::core::XPathInductor xpath_inductor;
  ntw::core::LrInductor lr_inductor;
  std::string manifest;
  std::string expected;
  size_t page_index = 0;
  for (size_t s = 0; s < dealers.sites.size(); ++s) {
    const ntw::sitegen::GeneratedSite& site = dealers.sites[s].site;
    std::string key = StrFormat("site_%04zu", s);
    std::vector<std::pair<std::string, ntw::core::WrapperPtr>> wrappers;
    for (const Learned& learn : kLearned) {
      auto truth = site.truth.find(learn.truth);
      if (truth == site.truth.end() || truth->second.empty()) continue;
      const ntw::core::WrapperInductor& inductor =
          learn.xpath
              ? static_cast<const ntw::core::WrapperInductor&>(xpath_inductor)
              : lr_inductor;
      ntw::core::Induction induction =
          inductor.Induce(site.pages, truth->second);
      if (induction.wrapper == nullptr) continue;
      ntw::Result<std::string> record =
          ntw::core::SerializeWrapper(*induction.wrapper);
      if (!record.ok()) Fail(record.status().ToString());
      WriteOrFail(args.dir + "/repo/" + key + "/" + learn.attribute +
                      ".wrapper",
                  *record + "\n");
      if (!learn.xpath) {
        WriteOrFail(args.dir + "/repo/" + LrKey(key) + "/" + learn.attribute +
                        ".wrapper",
                    *record + "\n");
      }
      // The reference runs the record as the repository will read it.
      ntw::Result<ntw::core::WrapperPtr> parsed =
          ntw::core::DeserializeWrapper(*record);
      if (!parsed.ok()) Fail(parsed.status().ToString());
      wrappers.emplace_back(learn.attribute, *parsed);
    }
    if (wrappers.size() < 2 || wrappers[0].first != "name" ||
        wrappers[1].first != "name_lr") {
      Fail(key + ": could not learn the name wrappers");
    }
    std::string attributes;
    for (const auto& [attribute, wrapper] : wrappers) {
      attributes += (attributes.empty() ? "" : ",") + attribute;
    }
    for (size_t p = 0; p < site.pages.size(); ++p, ++page_index) {
      std::string body = ntw::html::Serialize(site.pages.page(p).root());
      std::string path = StrFormat("pages/%s/page_%04zu.html", key.c_str(), p);
      WriteOrFail(args.dir + "/" + path, body);
      manifest += key + "\t" + path + "\t" + attributes + "\n";
      for (const auto& [attribute, wrapper] : wrappers) {
        expected += StrFormat("%zu\t", page_index) + attribute + "\t" +
                    JsonArray(InterpretValues(*wrapper, body)) + "\n";
      }
    }
  }
  WriteOrFail(args.dir + "/manifest.tsv", manifest);
  WriteOrFail(args.dir + "/expected.tsv", expected);
  return 0;
}

namespace {

// ---------------------------------------------------------------------
// inputs
// ---------------------------------------------------------------------

struct Page {
  std::string site;
  std::string body;
  std::vector<std::string> attributes;  // Ascending.
};

enum class Kind { kLr, kXPath, kMulti };

/// One distinct request: its wire bytes in three parts (request line,
/// headers, and the page body it shares with the other requests for that
/// page — a traced run splices a request-id header in after the line) and
/// the exact response body it must get.
struct Request {
  size_t page = 0;
  std::string attribute;  // "*" for multi.
  Kind kind = Kind::kLr;
  std::string line;
  std::string head;
  const std::string* body = nullptr;  // The page's; pages outlive requests.

  std::string Wire() const { return line + head + *body; }
  std::string expected_values;  // `"values":[...]` / `"attributes":{...}`
  std::string expected_body;    // Whole body, from the gated in-process run.
};

std::vector<Page> LoadPages(const std::string& dir) {
  std::vector<Page> pages;
  for (const std::string& line :
       ntw::Split(ReadOrFail(dir + "/manifest.tsv"), '\n')) {
    if (line.empty()) continue;
    std::vector<std::string> f = ntw::Split(line, '\t');
    if (f.size() != 3) Fail("bad manifest line: " + line);
    pages.push_back(
        Page{f[0], ReadOrFail(dir + "/" + f[1]), ntw::Split(f[2], ',')});
  }
  if (pages.empty()) Fail("empty serve corpus");
  return pages;
}

std::vector<Request> BuildRequests(const std::string& dir,
                                   const std::vector<Page>& pages) {
  std::map<std::pair<size_t, std::string>, std::string> values;
  for (const std::string& line :
       ntw::Split(ReadOrFail(dir + "/expected.tsv"), '\n')) {
    if (line.empty()) continue;
    std::vector<std::string> f = ntw::Split(line, '\t');
    if (f.size() != 3) Fail("bad expected line");
    values[{std::stoul(f[0]), f[1]}] = f[2];
  }
  std::vector<Request> requests;
  for (size_t p = 0; p < pages.size(); ++p) {
    const Page& page = pages[p];
    std::string all = "\"attributes\":{";
    std::vector<std::string> attributes = page.attributes;
    attributes.push_back("*");
    for (const std::string& attribute : attributes) {
      Request r;
      r.page = p;
      r.attribute = attribute;
      std::string site = page.site;
      if (attribute == "*") {
        r.kind = Kind::kMulti;
        r.expected_values = all + "}";
        site = LrKey(page.site);
      } else {
        auto it = values.find({p, attribute});
        if (it == values.end()) Fail("no reference for " + attribute);
        r.kind = attribute == "name" ? Kind::kXPath : Kind::kLr;
        r.expected_values = "\"values\":" + it->second;
        if (r.kind == Kind::kLr) {
          all += (all.back() == '{' ? "\"" : ",\"") + attribute +
                 "\":" + it->second;
        }
      }
      r.line = "POST /extract?site=" + site + "&attribute=" + attribute +
               " HTTP/1.1\r\n";
      r.head = "Host: 127.0.0.1\r\nContent-Type: text/html\r\n"
               "Content-Length: " +
               std::to_string(page.body.size()) + "\r\n\r\n";
      r.body = &page.body;
      requests.push_back(std::move(r));
    }
  }
  return requests;
}

/// The seeded request mix: indices into the distinct requests.
std::vector<uint32_t> BuildSequence(const std::vector<Request>& requests,
                                    uint64_t seed) {
  std::vector<std::vector<uint32_t>> by_kind(3);
  for (size_t i = 0; i < requests.size(); ++i) {
    by_kind[static_cast<size_t>(requests[i].kind)].push_back(
        static_cast<uint32_t>(i));
  }
  ntw::Rng rng(seed * 7919 + 1);
  std::vector<uint32_t> sequence;
  sequence.reserve(kSequenceLength);
  for (size_t i = 0; i < kSequenceLength; ++i) {
    double u = rng.NextDouble();
    const std::vector<uint32_t>& pool =
        by_kind[u < kLrShare                 ? 0
                : u < kLrShare + kXPathShare ? 1
                                             : 2];
    sequence.push_back(pool[rng.NextBounded(pool.size())]);
  }
  return sequence;
}

// ---------------------------------------------------------------------
// server
// ---------------------------------------------------------------------

/// Repository + two-shard HttpServer, one ExtractService per shard. The
/// handler counts requests per shard (busiest-shard share) and, while
/// tracing, records a `serve.shard.handle` span per request: Handle as the
/// reactor runs it, under load.
class LiveServer {
 public:
  LiveServer(const std::string& root, Tracer* tracer)
      : repository_(root), tracer_(tracer) {}

  ~LiveServer() { Stop(); }

  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  void Start() {
    ntw::Status loaded = repository_.Load();
    if (!loaded.ok()) Fail(loaded.ToString());
    if (!repository_.snapshot()->errors.empty()) {
      Fail("wrapper load error: " + repository_.snapshot()->errors.front());
    }
    ntw::serve::ServerOptions options;
    options.port = 0;
    options.shards = kShards;
    options.force_accept_relay = true;  // Round-robin placement.
    options.tick_interval_ms = 0;
    options.pool = nullptr;  // Inline: the reactors are the threads.
    server_ = std::make_unique<ntw::serve::HttpServer>(
        options, ntw::serve::HttpServer::HandlerFactory([this](int shard) {
          services_[shard] = std::make_unique<ntw::serve::ExtractService>(
              &repository_, &ntw::ThreadPool::Global(),
              ntw::serve::ExtractService::Options{});
          ntw::serve::ExtractService* service = services_[shard].get();
          std::atomic<int64_t>* count = &counts_[shard].n;
          Tracer::Buffer* buffer =
              tracer_ == nullptr ? nullptr : tracer_->NewBuffer();
          return [this, service, count,
                  buffer](const ntw::serve::HttpRequest& request) {
            count->fetch_add(1, std::memory_order_relaxed);
            if (buffer == nullptr ||
                !tracing_.load(std::memory_order_relaxed)) {
              return service->Handle(request);
            }
            int64_t start = NowNs();
            ntw::serve::HttpResponse response = service->Handle(request);
            int64_t end = NowNs();
            const std::string* id = request.FindHeader("x-request-id");
            uint64_t rid = id == nullptr ? 0 : std::stoull(*id);
            buffer->Record("serve.shard.handle", rid, rid, start, end);
            return response;
          };
        }));
    ntw::Status bound = server_->Bind();
    if (!bound.ok()) Fail(bound.ToString());
    thread_ = std::thread([this] { run_status_ = server_->Run(); });
  }

  void Stop() {
    if (!thread_.joinable()) return;
    server_->RequestShutdown();
    thread_.join();
    if (!run_status_.ok()) Fail(run_status_.ToString());
  }

  int port() const { return server_->port(); }
  const ntw::serve::WrapperRepository& repository() const {
    return repository_;
  }
  void set_tracing(bool on) { tracing_.store(on); }

  std::array<int64_t, kShards> ShardCounts() const {
    std::array<int64_t, kShards> out{};
    for (int s = 0; s < kShards; ++s) out[s] = counts_[s].n.load();
    return out;
  }

 private:
  struct alignas(64) Count {
    std::atomic<int64_t> n{0};
  };
  ntw::serve::WrapperRepository repository_;
  Tracer* tracer_;
  std::atomic<bool> tracing_{false};
  std::unique_ptr<ntw::serve::ExtractService> services_[kShards];
  Count counts_[kShards];
  std::unique_ptr<ntw::serve::HttpServer> server_;
  ntw::Status run_status_;
  std::thread thread_;  // Declared last: joined before the rest go.
};

int Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Fail("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    Fail("connect() failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, iovec* iov, int count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(count);
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) return false;
    size_t left = static_cast<size_t>(n);
    while (count > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return true;
}

/// GET /healthz on an open keep-alive connection; fails unless it
/// answers 200.
void HealthzOn(int fd) {
  std::string request = "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  iovec iov{request.data(), request.size()};
  if (!SendAll(fd, &iov, 1)) Fail("healthz send failed");
  std::string response;
  char buf[4096];
  while (true) {
    size_t header_end = response.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      size_t cl = response.find("Content-Length: ");
      if (cl == std::string::npos || cl > header_end) {
        Fail("healthz response without length");
      }
      size_t length = std::strtoull(response.c_str() + cl + 16, nullptr, 10);
      if (response.size() >= header_end + 4 + length) break;
    }
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) Fail("healthz connection closed");
    response.append(buf, static_cast<size_t>(n));
  }
  if (response.compare(0, 12, "HTTP/1.1 200") != 0) Fail("healthz failed");
}

/// GET /healthz on a fresh connection — the end of server start-up.
void WaitReady(int port) {
  int fd = Connect(port);
  HealthzOn(fd);
  ::close(fd);
}

// ---------------------------------------------------------------------
// closed-loop client
// ---------------------------------------------------------------------

constexpr int64_t kWindowNs = 500'000'000;

struct LoopResult {
  explicit LoopResult(int64_t start_ns) : latency(start_ns, kWindowNs) {}
  LatencyRecorder latency;  // Round trips completed in the window.
  int64_t completed = 0;    // Inside the window.
  int64_t failed = 0;       // Wrong status or body, any time.
  int64_t sent = 0;
  int64_t window_ns = 0;    // Measured time.
  int64_t elapsed_ns = 0;   // Measured time plus the drain after it.
  int64_t cpu_ns = 0;       // Client thread CPU over elapsed_ns.
  std::array<int64_t, kShards> shard_requests{};
  size_t next = 0;          // Where the request sequence continues.

  double wall_s() const { return static_cast<double>(window_ns) / 1e9; }
  double cpu_share() const {
    return elapsed_ns > 0 ? static_cast<double>(cpu_ns) / elapsed_ns : 0.0;
  }
  /// The busiest shard's share of requests.
  double max_shard_share() const {
    int64_t total = 0;
    int64_t busiest = 0;
    for (int64_t n : shard_requests) {
      total += n;
      busiest = std::max(busiest, n);
    }
    return total > 0 ? static_cast<double>(busiest) / total : 0.0;
  }
  /// Adds a later segment's counts and windows.
  void Absorb(const LoopResult& later) {
    latency.Merge(later.latency);
    completed += later.completed;
    failed += later.failed;
    sent += later.sent;
    window_ns += later.window_ns;
    elapsed_ns += later.elapsed_ns;
    cpu_ns += later.cpu_ns;
    for (int s = 0; s < kShards; ++s) {
      shard_requests[s] += later.shard_requests[s];
    }
    next = later.next;
  }
};

/// One thread, kConnections keep-alive connections, no pipelining. Sends
/// sequence[i % size] in order across connections until `max_requests`
/// are sent or `seconds` have passed, validates every response against
/// its expected body, and records round trips that complete inside the
/// window. With `trace` set, each request is a root span whose id travels
/// in an X-Request-Id header.
LoopResult RunLoop(const LiveServer& server,
                   const std::vector<Request>& requests,
                   const std::vector<uint32_t>& sequence, size_t start_at,
                   int64_t max_requests, double seconds,
                   Tracer::Buffer* trace) {
  struct Conn {
    int fd = -1;
    std::string in;
    size_t off = 0;
    int64_t sent_ns = 0;
    uint32_t request = 0;
    uint64_t span = 0;
    bool busy = false;
  };
  std::vector<Conn> conns(kConnections);
  std::vector<pollfd> pfds(kConnections);
  // Placement check: one /healthz per connection shows which shard owns
  // it; the round-robin relay must give every shard the same number.
  std::array<int, kShards> placed{};
  for (int c = 0; c < kConnections; ++c) {
    conns[c].fd = Connect(server.port());
    pfds[c] = pollfd{conns[c].fd, POLLIN, 0};
    std::array<int64_t, kShards> before = server.ShardCounts();
    HealthzOn(conns[c].fd);
    std::array<int64_t, kShards> after = server.ShardCounts();
    for (int s = 0; s < kShards; ++s) placed[s] += after[s] != before[s];
  }
  for (int s = 0; s < kShards; ++s) {
    if (placed[s] != kConnections / kShards) {
      Fail(StrFormat("unbalanced placement: shard %d holds %d of %d "
                     "connections", s, placed[s], kConnections));
    }
  }
  const std::array<int64_t, kShards> shards_before = server.ShardCounts();
  size_t next = start_at;
  std::string id_header;
  const int64_t start = NowNs();
  LoopResult result(start);
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t cpu_start = ThreadCpuNs();

  auto send_next = [&](Conn& conn) {
    if (result.sent >= max_requests || NowNs() >= deadline) return;
    conn.request = sequence[next++ % sequence.size()];
    const Request& r = requests[conn.request];
    iovec iov[4];
    int count = 0;
    iov[count++] = iovec{const_cast<char*>(r.line.data()), r.line.size()};
    conn.sent_ns = NowNs();
    if (trace != nullptr) {
      // The root span opens before the request leaves, so the server's
      // span can name it as parent; it closes on the reply.
      conn.span = trace->Open("serve.client.request", 0, 0, conn.sent_ns);
      id_header = StrFormat("X-Request-Id: %llu\r\n",
                            static_cast<unsigned long long>(conn.span));
      iov[count++] = iovec{id_header.data(), id_header.size()};
    }
    iov[count++] = iovec{const_cast<char*>(r.head.data()), r.head.size()};
    iov[count++] = iovec{const_cast<char*>(r.body->data()), r.body->size()};
    if (!SendAll(conn.fd, iov, count)) Fail("send failed");
    conn.busy = true;
    ++result.sent;
  };

  for (Conn& conn : conns) send_next(conn);
  int64_t last_progress = NowNs();
  char buf[65536];
  while (true) {
    bool any_busy = false;
    for (const Conn& conn : conns) any_busy |= conn.busy;
    if (!any_busy) break;
    int ready = ::poll(pfds.data(), pfds.size(), 1000);
    if (ready < 0) Fail("poll failed");
    if (ready == 0 && NowNs() - last_progress > 20'000'000'000) {
      Fail("server stopped answering");
    }
    for (int c = 0; c < kConnections; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = conns[c];
      ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n <= 0) Fail("connection closed by server");
      conn.in.append(buf, static_cast<size_t>(n));
      // At most one response is outstanding per connection.
      size_t header_end = conn.in.find("\r\n\r\n", conn.off);
      if (header_end == std::string::npos) continue;
      std::string_view head(conn.in.data() + conn.off, header_end - conn.off);
      size_t cl = head.find("Content-Length: ");
      if (cl == std::string_view::npos) Fail("response without length");
      size_t length = std::strtoull(head.data() + cl + 16, nullptr, 10);
      if (conn.in.size() < header_end + 4 + length) continue;
      int64_t now = NowNs();
      last_progress = now;
      std::string_view body(conn.in.data() + header_end + 4, length);
      const Request& r = requests[conn.request];
      if (head.compare(0, 12, "HTTP/1.1 200") != 0 || body != r.expected_body) {
        ++result.failed;
      }
      if (now <= deadline) {
        ++result.completed;
        result.latency.Add(now, static_cast<double>(now - conn.sent_ns) / 1e3);
      }
      if (trace != nullptr) trace->Close(conn.span, now);
      conn.in.clear();
      conn.off = 0;
      conn.busy = false;
      send_next(conn);
    }
  }
  const int64_t end = NowNs();
  result.latency.Finish(std::min(end, deadline));
  const std::array<int64_t, kShards> shards_after = server.ShardCounts();
  for (int s = 0; s < kShards; ++s) {
    result.shard_requests[s] = shards_after[s] - shards_before[s];
  }
  result.window_ns = std::min(end, deadline) - start;
  result.elapsed_ns = end - start;
  result.cpu_ns = ThreadCpuNs() - cpu_start;
  result.next = next;
  for (Conn& conn : conns) ::close(conn.fd);
  return result;
}

/// RunLoop over the mix for `seconds`, in segments of kSegmentSeconds with
/// `between` called between every two, continuing the request sequence
/// across them.
template <typename Between>
LoopResult RunSegments(const LiveServer& server,
                       const std::vector<Request>& requests,
                       const std::vector<uint32_t>& sequence, double seconds,
                       Tracer::Buffer* trace, Between&& between) {
  double left = seconds;
  LoopResult result = RunLoop(server, requests, sequence, 0, INT64_MAX,
                              std::min(left, kSegmentSeconds), trace);
  left -= kSegmentSeconds;
  while (left > 1e-9) {
    between();
    result.Absorb(RunLoop(server, requests, sequence, result.next, INT64_MAX,
                          std::min(left, kSegmentSeconds), trace));
    left -= kSegmentSeconds;
  }
  return result;
}

}  // namespace

/// One set-up as a deployment pays it: repository load + server start until
/// /healthz answers, in a process that has done nothing else yet.
int SetupServe(const Args& args) {
  ntw::ThreadPool::SetGlobalThreads(1);  // Only /extract_batch would use it.
  ntw::obs::Registry::Global().SetShardCount(kShards);
  const int64_t t0 = NowNs();
  LiveServer server(args.dir + "/repo", nullptr);
  server.Start();
  WaitReady(server.port());
  const int64_t t1 = NowNs();
  server.Stop();
  std::printf("%.9f\n", static_cast<double>(t1 - t0) / 1e9);
  return 0;
}

int RunServe(const Args& args) {
  Report report("serve");
  ntw::ThreadPool::SetGlobalThreads(1);  // Only /extract_batch would use it.
  ntw::obs::Registry::Global().SetShardCount(kShards);
  std::vector<Page> pages = LoadPages(args.dir);
  std::vector<Request> requests = BuildRequests(args.dir, pages);
  std::vector<uint32_t> sequence = BuildSequence(requests, args.seed);
  Tracer tracer(1 << 19);

  // ----- set-up, each in a fresh `perfbench setup` process. The server
  // measured here starts the same way, untimed. ----------------------------
  std::vector<double> setup_s;
  auto set_up = [&] {
    std::string seconds = RunSelf(
        {"setup", "--workload", "serve", "--seed", std::to_string(args.seed),
         "--seconds", "1", "--trace", "0", "--dir", args.dir});
    setup_s.push_back(std::stod(seconds));
  };
  auto set_up_between_segments = [&] {
    for (int i = 0; i < kSetupsPerSegment; ++i) set_up();
  };
  for (int i = 0; i < kSetupRepeats; ++i) set_up();
  auto live = std::make_unique<LiveServer>(args.dir + "/repo",
                                           args.trace ? &tracer : nullptr);
  live->Start();
  WaitReady(live->port());

  // ----- gate 1: every distinct request in-process; values must equal the
  // heap-DOM interpreter's. The bodies become the client's expectation. --
  {
    ntw::serve::ExtractService service(&live->repository(),
                                       &ntw::ThreadPool::Global());
    ntw::serve::HttpLimits limits;
    for (Request& r : requests) {
      ntw::serve::RequestParser parser(limits);
      std::string wire = r.Wire();
      if (parser.Consume(&wire) !=
          ntw::serve::RequestParser::Phase::kComplete) {
        Fail("request does not parse: " + r.line);
      }
      ntw::serve::HttpResponse response = service.Handle(parser.request());
      if (response.status != 200 ||
          response.body.find(r.expected_values) == std::string::npos) {
        Fail("values differ from the interpreter for " + r.line +
             "  expected " + r.expected_values + "\n  got " + response.body);
      }
      r.expected_body = std::move(response.body);
    }
  }
  // ----- gate 2: every distinct request once through the server. -------
  {
    std::vector<uint32_t> all(requests.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
    LoopResult pass = RunLoop(*live, requests, all, 0,
                              static_cast<int64_t>(all.size()), 60.0, nullptr);
    if (pass.failed > 0 || pass.sent != static_cast<int64_t>(all.size())) {
      Fail(StrFormat("%lld server responses differ from the reference",
                     static_cast<long long>(pass.failed)));
    }
  }
  // Warm-up on the mix, then the measured window(s).
  RunLoop(*live, requests, sequence, 0, INT64_MAX, 0.3, nullptr);
  const double loop_seconds = args.trace ? args.seconds * 0.4 : args.seconds;
  LoopResult untraced = RunSegments(*live, requests, sequence, loop_seconds,
                                    nullptr, set_up_between_segments);
  int64_t attempted = untraced.sent;
  int64_t failed = untraced.failed;

  const double max_shard_share = untraced.max_shard_share();
  // Over half-second windows: the rate three windows in four sustain, and
  // the median window's latency percentiles. A closed loop of four
  // connections loses half its rate whenever another tenant of the
  // machine stalls a reactor thread for a few milliseconds; the upper
  // quartile keeps those windows out of the rate, the median keeps them
  // out of the latencies.
  const double rps = untraced.latency.RateQuantile(0.75);
  const double p50 = untraced.latency.p50_us();
  const double p99 = untraced.latency.p99_us();
  const Tail tail = untraced.latency.TailOf();
  const double setup = Median(setup_s);

  report.Text(MachineLine(
      args, StrFormat("shards=%d placement=round-robin client_threads=1 "
                      "connections=%d pipeline=1 distinct_requests=%zu "
                      "setup_samples=%zu",
                      kShards, kConnections, requests.size(),
                      setup_s.size())));
  report.Line("serve_rps", rps, "req/s",
              "upper quartile over 0.5 s windows");
  report.Line("serve_rps (whole window)",
              static_cast<double>(untraced.completed) / untraced.wall_s(),
              "req/s");
  report.Line("serve_p50_us", p50, "us", "latency_p50_us");
  report.Line("serve_p99_us", p99, "us",
              "median over windows of the window p99");
  report.Line("serve.server.max_shard_share", max_shard_share, "ratio",
              "busiest shard's share of requests");
  report.Line("serve.client.cpu_share", untraced.cpu_share(), "ratio",
              "client thread CPU / wall; near 1 = the client is the limit");
  report.Line(StrFormat("serve.tail_us (p%g)", tail.pct), tail.value, "us",
              StrFormat("%lld samples",
                        static_cast<long long>(untraced.latency.count())));

  if (!args.trace) {
    report.Metric("setup_s", setup, "s");
    report.Metric("peak_rss_mb", PeakRssMiB(), "MiB");
    report.Metric("latency_p50_us", p50, "us");
    live->Stop();
    report.Print(attempted, failed);
    return 0;
  }

  // ----- traced: the same loop with spans on, then in-process layer
  // probes over the mix. ------------------------------------------------
  live->set_tracing(true);
  Tracer::Buffer* client_spans = tracer.NewBuffer();
  LoopResult traced =
      RunSegments(*live, requests, sequence, args.seconds * 0.4, client_spans,
                  set_up_between_segments);
  live->set_tracing(false);
  attempted += traced.sent;
  failed += traced.failed;
  const double traced_rps = traced.latency.RateQuantile(0.75);

  Tracer::Buffer* probe = tracer.NewBuffer();
  ntw::serve::ExtractService service(&live->repository(),
                                     &ntw::ThreadPool::Global());
  ntw::serve::HttpLimits limits;
  ntw::html::StreamPage stream_page;
  ntw::core::StreamPageBuffer stream_buffer;
  std::vector<std::string_view> values;
  std::vector<double> parse, find, build, lr, xpath, handle, handle_multi,
      handle_all, other;
  int64_t tiers[3] = {0, 0, 0};
  const int64_t probe_end =
      NowNs() + static_cast<int64_t>(args.seconds * 0.2 * 1e9);
  for (size_t i = 0; NowNs() < probe_end; ++i) {
    const Request& r = requests[sequence[i % sequence.size()]];
    const Page& page = pages[r.page];
    const uint64_t rid =
        probe->Open("serve.replay.request", 0, 0, NowNs());
    auto span = [&](const char* name, int64_t start, int64_t end) {
      probe->Record(name, rid, rid, start, end);
      return static_cast<double>(end - start) / 1e3;
    };
    ntw::serve::RequestParser parser(limits);
    std::string wire = r.Wire();
    int64_t t0 = NowNs();
    ntw::serve::RequestParser::Phase phase = parser.Consume(&wire);
    int64_t t1 = NowNs();
    if (phase != ntw::serve::RequestParser::Phase::kComplete) {
      Fail("probe parse failed");
    }
    parse.push_back(span("serve.http.parse", t0, t1));
    double find_us = 0.0;
    double extract_us = 0.0;
    if (r.kind != Kind::kMulti) {
      t0 = NowNs();
      const ntw::serve::WrapperRepository::Entry* entry;
      {
        ntw::serve::WrapperRepository::PinnedSnapshot pin =
            live->repository().Pin();
        entry = pin->Find(page.site, r.attribute);
      }
      t1 = NowNs();
      find_us = span("serve.repository.find", t0, t1);
      find.push_back(find_us);
      if (entry == nullptr || entry->compiled == nullptr) {
        Fail("no compiled plan for " + r.line);
      }
      const ntw::core::CompiledWrapper& plan = *entry->compiled;
      double build_us = 0.0;
      if (plan.dom_free()) {
        t0 = NowNs();
        stream_page.Build(page.body);
        t1 = NowNs();
        build_us = span("html.stream_page.build", t0, t1);
        build.push_back(build_us);
        ++tiers[static_cast<int>(stream_page.tier())];
      }
      if (plan.dom_free() || plan.streamable()) {
        t0 = NowNs();
        plan.ExtractStreaming(page.body, stream_buffer, &values);
        t1 = NowNs();
        extract_us = span(plan.dom_free() ? "core.compiled_wrapper.lr"
                                          : "core.compiled_wrapper.xpath",
                          t0, t1);
        stream_buffer.Clear();
        (plan.dom_free() ? lr : xpath).push_back(extract_us - build_us);
      }
    }
    t0 = NowNs();
    ntw::serve::HttpResponse response = service.Handle(parser.request());
    t1 = NowNs();
    if (response.body != r.expected_body) Fail("probe response differs");
    double handle_us =
        span(r.kind == Kind::kMulti ? "serve.service.handle_multi"
                                    : "serve.service.handle",
             t0, t1);
    handle_all.push_back(handle_us);
    if (r.kind == Kind::kMulti) {
      handle_multi.push_back(handle_us);
    } else {
      handle.push_back(handle_us);
      other.push_back(handle_us - find_us - extract_us);
    }
    probe->Close(rid, NowNs());
  }
  live->Stop();

  const int64_t tier_total = tiers[0] + tiers[1] + tiers[2];
  auto share = [&](int tier) {
    return tier_total > 0 ? static_cast<double>(tiers[tier]) / tier_total
                          : 0.0;
  };
  const double parse_us = Median(parse);
  const double handle_all_us = Median(handle_all);
  const char* rps_name = "serve_rps";
  const char* p50_name = "latency_p50_us (serve_p50_us)";
  report.Metric("serve.http.parse_us", parse_us, "us", rps_name);
  report.Metric("serve.repository.find_us", Median(find), "us", p50_name);
  report.Metric("html.stream_page.build_us", Median(build), "us",
                "latency_p50_us (serve_p50_us, crawl_pages_per_s)");
  report.Metric("html.stream_page.verbatim_share", share(0), "ratio",
                p50_name);
  report.Metric("html.stream_page.patched_share", share(1), "ratio",
                p50_name);
  report.Metric("html.stream_page.flattened_share", share(2), "ratio",
                p50_name);
  report.Metric("core.compiled_wrapper.lr_us", Median(lr), "us", rps_name);
  report.Metric("core.compiled_wrapper.xpath_us", Median(xpath), "us",
                rps_name);
  report.Metric("serve.service.handle_us", Median(handle), "us", p50_name);
  report.Metric("serve.service.handle_multi_us", Median(handle_multi), "us",
                p50_name);
  report.Metric("serve.service.other_us", Median(other), "us", p50_name);
  report.Metric("serve.server.overhead_us", p50 - parse_us - handle_all_us,
                "us", rps_name);
  report.Metric("serve.server.max_shard_share", max_shard_share, "ratio",
                rps_name);
  report.Metric("serve.client.cpu_share", untraced.cpu_share(), "ratio",
                rps_name);
  const char* tail_moves = "serve_p99_us (printed, not in the JSON)";
  report.Metric("serve.tail_us", tail.value, "us", tail_moves);
  report.Metric("serve.tail_pct", tail.pct, "pct", tail_moves);
  report.Metric("serve.samples",
                static_cast<double>(untraced.latency.count()),
                "count", tail_moves);
  report.Metric("trace.overhead_pct", (rps - traced_rps) / rps * 100.0, "%",
                "serve_rps");
  report.Line("serve_rps (traced)", traced_rps, "req/s");
  ReportSpans(tracer, args.trace_out, &report);
  report.Print(attempted, failed);
  return 0;
}

}  // namespace perfbench
