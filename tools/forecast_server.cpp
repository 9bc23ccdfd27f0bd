// Async forecast service front-end: a unix-domain-socket server wrapping
// ensemble::ForecastService plus a line-protocol client. One process serves
// many clients; concurrent compatible requests coalesce into one batched
// ensemble run, and each client streams back its members' assembled
// prognostic fields (checksum + probe samples — the golden-file record
// shape, so a served forecast is directly comparable to a committed
// golden).
//
//   forecast_server serve   --socket /tmp/cyclone.sock [--ranks 6]
//                           [--workers 1] [--max-batch 32] [--chaos-rate R]
//   forecast_server request --socket /tmp/cyclone.sock core=swe ic=hill
//                           npx=12 ntracers=2 members=4 seed=7 steps=2
//                           backend=openmp [chaos=1] [--golden NAME] [--quiet]
//   forecast_server stats   --socket /tmp/cyclone.sock
//   forecast_server shutdown --socket /tmp/cyclone.sock

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/util/strings.hpp"
#include "corpus/scenarios.hpp"
#include "ensemble/service.hpp"

namespace {

using namespace cyclone;
using ensemble::ForecastRequest;
using ensemble::ForecastResult;
using ensemble::ForecastService;
using ensemble::parse_kv;
using ensemble::parse_request;

// --- Line framing over a stream socket --------------------------------------

bool send_line(int fd, const std::string& line) {
  std::string framed = line + "\n";
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::write(fd, framed.data() + sent, framed.size() - sent);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Read one newline-terminated line (buffered per call; commands are small).
bool recv_line(int fd, std::string& line, std::string& buffer) {
  for (;;) {
    const size_t pos = buffer.find('\n');
    if (pos != std::string::npos) {
      line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- Server -----------------------------------------------------------------

struct ServerState {
  ForecastService* service = nullptr;
  std::atomic<bool> stopping{false};
  int listen_fd = -1;
};

void stream_result(int fd, const ForecastResult& result) {
  if (result.ok) {
    for (const ensemble::MemberForecast& member : result.members) {
      std::ostringstream head;
      head << "member index=" << member.spec.index << " seed=" << member.spec.seed;
      if (!send_line(fd, head.str())) return;
      for (const verify::GoldenField& field : member.fields) {
        std::ostringstream line;
        line << "field name=" << field.name << " tiles=" << field.tiles << " ni=" << field.ni
             << " nj=" << field.nj << " nk=" << field.nk
             << " checksum=" << hex64(field.checksum) << " samples=";
        for (size_t s = 0; s < field.samples.size(); ++s) {
          if (s) line << ',';
          line << hex64(field.samples[s]);
        }
        if (!send_line(fd, line.str())) return;
      }
    }
  }
  std::ostringstream done;
  done << "done ok=" << (result.ok ? 1 : 0) << " latency_ms=" << result.latency_seconds * 1e3
       << " queue_ms=" << result.queue_seconds * 1e3 << " run_ms=" << result.run_seconds * 1e3
       << " batch_members=" << result.batch_members
       << " coalesced_requests=" << result.coalesced_requests
       << " restarts=" << result.report.restarts << " sequence=" << result.sequence;
  if (!result.ok) done << " error=" << result.error;  // error text ends the line
  send_line(fd, done.str());
}

void handle_connection(ServerState& state, int fd) {
  std::string line, buffer;
  if (recv_line(fd, line, buffer)) {
    std::istringstream iss(line);
    std::string command;
    iss >> command;
    std::vector<std::string> tokens;
    for (std::string t; iss >> t;) tokens.push_back(t);
    if (command == "forecast") {
      ForecastRequest request;
      std::string error;
      if (!parse_request(parse_kv(tokens), request, error)) {
        send_line(fd, "done ok=0 error=" + error);
      } else {
        ForecastService::Ticket ticket = state.service->submit(request);
        stream_result(fd, ticket.result.get());
      }
    } else if (command == "stats") {
      const ensemble::ServiceStats s = state.service->stats();
      std::ostringstream json;
      json << "{\"submitted\": " << s.submitted << ", \"completed\": " << s.completed
           << ", \"cancelled\": " << s.cancelled << ", \"failed\": " << s.failed
           << ", \"batches\": " << s.batches
           << ", \"coalesced_requests\": " << s.coalesced_requests
           << ", \"member_steps\": " << s.member_steps << ", \"busy_seconds\": " << s.busy_seconds
           << ", \"program_builds\": " << s.program_builds << ", \"ic_builds\": " << s.ic_builds
           << ", \"cache_evictions\": " << s.cache_evictions << "}";
      send_line(fd, json.str());
    } else if (command == "shutdown") {
      state.stopping.store(true);
      ::shutdown(state.listen_fd, SHUT_RDWR);  // breaks the accept loop
      send_line(fd, "ok shutting down");
    } else {
      send_line(fd, "done ok=0 error=unknown command '" + command + "'");
    }
  }
  ::close(fd);
}

int serve(const std::string& socket_path, ForecastService::Options options) {
  ForecastService service(options);
  ServerState state;
  state.service = &service;

  state.listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (state.listen_fd < 0) {
    std::perror("socket");
    return 1;
  }
  ::unlink(socket_path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "socket path too long\n");
    return 1;
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(state.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::perror("bind");
    return 1;
  }
  if (::listen(state.listen_fd, 16) != 0) {
    std::perror("listen");
    return 1;
  }
  std::printf("forecast_server listening on %s (ranks=%d workers=%d max_batch=%d)\n",
              socket_path.c_str(), options.num_ranks, options.workers,
              options.max_batch_members);
  std::fflush(stdout);

  std::vector<std::thread> connections;
  while (!state.stopping.load()) {
    const int fd = ::accept(state.listen_fd, nullptr, nullptr);
    if (fd < 0) break;  // listener shut down (or fatal error) — stop accepting
    connections.emplace_back([&state, fd] { handle_connection(state, fd); });
  }
  for (std::thread& t : connections) t.join();
  ::close(state.listen_fd);
  ::unlink(socket_path.c_str());
  std::printf("forecast_server: clean shutdown\n");
  return 0;
}

// --- Client -----------------------------------------------------------------

int connect_to(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct StreamedField {
  int member = -1;
  verify::GoldenField field;
};

/// Run one request, printing the stream; returns 0 on ok=1 (and, with a
/// golden, only if every streamed field matches the committed record).
int client_request(const std::string& socket_path, const std::vector<std::string>& tokens,
                   const std::string& golden_name, bool quiet) {
  const int fd = connect_to(socket_path);
  if (fd < 0) {
    std::fprintf(stderr, "cannot connect to %s\n", socket_path.c_str());
    return 1;
  }
  std::string request_line = "forecast";
  for (const std::string& t : tokens) request_line += " " + t;
  if (!send_line(fd, request_line)) {
    ::close(fd);
    return 1;
  }

  std::vector<StreamedField> streamed;
  int current_member = -1;
  bool ok = false;
  std::string line, buffer;
  while (recv_line(fd, line, buffer)) {
    if (!quiet) std::printf("%s\n", line.c_str());
    std::istringstream iss(line);
    std::string kind;
    iss >> kind;
    std::vector<std::string> rest;
    for (std::string t; iss >> t;) rest.push_back(t);
    const auto kv = parse_kv(rest);
    if (kind == "member") {
      current_member = std::stoi(kv.at("index"));
    } else if (kind == "field") {
      StreamedField sf;
      sf.member = current_member;
      sf.field.name = kv.at("name");
      sf.field.tiles = std::stoi(kv.at("tiles"));
      sf.field.ni = std::stoi(kv.at("ni"));
      sf.field.nj = std::stoi(kv.at("nj"));
      sf.field.nk = std::stoi(kv.at("nk"));
      sf.field.checksum = std::stoull(kv.at("checksum"), nullptr, 16);
      std::istringstream samples(kv.at("samples"));
      for (std::string s; std::getline(samples, s, ',');) {
        sf.field.samples.push_back(std::stoull(s, nullptr, 16));
      }
      streamed.push_back(std::move(sf));
    } else if (kind == "done") {
      ok = kv.count("ok") && kv.at("ok") == "1";
      break;
    }
  }
  ::close(fd);
  if (!ok) return 1;

  if (!golden_name.empty()) {
    // Ensemble goldens store member m's field f as "m<m>.<f>": every
    // streamed field must match its committed record bit for bit.
    const std::string path = corpus::default_corpus_dir() + "/" + golden_name + ".gold";
    const verify::GoldenSnapshot snapshot = verify::GoldenSnapshot::load(path);
    long matched = 0;
    for (const StreamedField& sf : streamed) {
      verify::GoldenField expected = sf.field;
      expected.name = str::numbered("m", sf.member) + "." + sf.field.name;
      bool found = false;
      for (const verify::GoldenField& g : snapshot.fields) {
        if (g.name != expected.name) continue;
        found = true;
        if (!(g == expected)) {
          std::fprintf(stderr, "golden mismatch: %s\n", expected.name.c_str());
          return 1;
        }
        ++matched;
      }
      if (!found) {
        std::fprintf(stderr, "golden %s has no field %s\n", golden_name.c_str(),
                     expected.name.c_str());
        return 1;
      }
    }
    if (matched == 0) {
      std::fprintf(stderr, "no fields verified against %s\n", golden_name.c_str());
      return 1;
    }
    std::printf("golden %s: %ld fields match\n", golden_name.c_str(), matched);
  }
  return 0;
}

int client_simple(const std::string& socket_path, const std::string& command) {
  const int fd = connect_to(socket_path);
  if (fd < 0) {
    std::fprintf(stderr, "cannot connect to %s\n", socket_path.c_str());
    return 1;
  }
  if (!send_line(fd, command)) {
    ::close(fd);
    return 1;
  }
  std::string line, buffer;
  const bool got = recv_line(fd, line, buffer);
  if (got) std::printf("%s\n", line.c_str());
  ::close(fd);
  return got ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: forecast_server serve    --socket PATH [--ranks N] [--workers N]\n"
               "                                [--max-batch N] [--threads N] [--chaos-rate R]\n"
               "       forecast_server request  --socket PATH key=value... [--golden NAME]\n"
               "                                [--quiet]\n"
               "       forecast_server stats    --socket PATH\n"
               "       forecast_server shutdown --socket PATH\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string mode = argv[1];
  std::string socket_path = "/tmp/cyclone_forecast.sock";
  std::string golden_name;
  bool quiet = false;
  ForecastService::Options options;
  std::vector<std::string> tokens;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--ranks") {
      options.num_ranks = std::stoi(next());
    } else if (arg == "--workers") {
      options.workers = std::stoi(next());
    } else if (arg == "--max-batch") {
      options.max_batch_members = std::stoi(next());
    } else if (arg == "--threads") {
      options.run.num_threads = std::stoi(next());
    } else if (arg == "--chaos-rate") {
      const double rate = std::stod(next());
      options.runtime.faults.drop_rate = rate;
      options.runtime.faults.duplicate_rate = rate;
      options.runtime.faults.reorder_rate = rate;
      options.runtime.faults.corrupt_rate = rate;
    } else if (arg == "--golden") {
      golden_name = next();
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      tokens.push_back(arg);
    }
  }
  try {
    if (mode == "serve") return serve(socket_path, options);
    if (mode == "request") return client_request(socket_path, tokens, golden_name, quiet);
    if (mode == "stats") return client_simple(socket_path, "stats");
    if (mode == "shutdown") return client_simple(socket_path, "shutdown");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "forecast_server: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
