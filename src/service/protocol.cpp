#include "service/protocol.h"

#include <cmath>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/json.h"
#include "taskmodel/spec_io.h"

namespace tprm::service {

namespace {

// --- Encode helpers -------------------------------------------------------
//
// Encoders stream compact JSON with every object's keys in sorted order, so
// a frame is byte-identical to dumpCompact() of the same document.

void writePlacements(JsonWriter& w,
                     const std::vector<sched::TaskPlacement>& ps) {
  w.beginArray();
  for (const auto& p : ps) {
    w.beginObject().member("begin", unitsFromTicks(p.interval.begin));
    if (p.deadline < kTimeInfinity) {
      w.member("deadline", unitsFromTicks(p.deadline));
    }
    w.member("end", unitsFromTicks(p.interval.end))
        .member("processors", p.processors)
        .endObject();
  }
  w.endArray();
}

void writeIds(JsonWriter& w, std::string_view key,
              const std::vector<std::uint64_t>& ids) {
  w.key(key).beginArray();
  for (const auto id : ids) w.value(static_cast<std::int64_t>(id));
  w.endArray();
}

// --- Decode helpers -------------------------------------------------------

/// Field cursor: remembers the first error so call sites stay linear.
class Reader {
 public:
  explicit Reader(const JsonValue& root) : root_(&root) {}

  [[nodiscard]] bool failed() const { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  double number(const char* key, bool required = true, double fallback = 0) {
    const auto* v = root_->find(key);
    if (v == nullptr) {
      if (required) fail(std::string("missing field '") + key + "'");
      return fallback;
    }
    if (!v->isNumber()) {
      fail(std::string("field '") + key + "' must be a number");
      return fallback;
    }
    return v->asNumber();
  }

  std::uint64_t id(const char* key, bool required = true) {
    const double d = number(key, required);
    if (failed()) return 0;
    if (d < 0 || d != std::floor(d)) {
      fail(std::string("field '") + key + "' must be a non-negative integer");
      return 0;
    }
    return static_cast<std::uint64_t>(d);
  }

  std::string string(const char* key) {
    const auto* v = root_->find(key);
    if (v == nullptr || !v->isString()) {
      fail(std::string("field '") + key + "' must be a string");
      return {};
    }
    return v->asString();
  }

  bool boolean(const char* key) {
    const auto* v = root_->find(key);
    if (v == nullptr || !v->isBool()) {
      fail(std::string("field '") + key + "' must be a boolean");
      return false;
    }
    return v->asBool();
  }

  void fail(std::string what) {
    if (error_.empty()) error_ = std::move(what);
  }

 private:
  const JsonValue* root_;
  std::string error_;
};

bool placementsFromJson(const JsonValue* value,
                        std::vector<sched::TaskPlacement>* out,
                        std::string* error) {
  if (value == nullptr || !value->isArray()) {
    *error = "'placements' must be an array";
    return false;
  }
  for (const auto& item : value->asArray()) {
    if (!item.isObject()) {
      *error = "placement entries must be objects";
      return false;
    }
    Reader r(item);
    sched::TaskPlacement p;
    p.interval.begin = ticksFromUnits(r.number("begin"));
    p.interval.end = ticksFromUnits(r.number("end"));
    p.processors = static_cast<int>(r.number("processors"));
    const auto* deadline = item.find("deadline");
    p.deadline = deadline != nullptr && deadline->isNumber()
                     ? ticksFromUnits(deadline->asNumber())
                     : kTimeInfinity;
    if (r.failed()) {
      *error = r.error();
      return false;
    }
    out->push_back(p);
  }
  return true;
}

bool idsFromJson(const JsonValue* value, std::vector<std::uint64_t>* out,
                 std::string* error, const char* key) {
  if (value == nullptr || !value->isArray()) {
    *error = std::string("'") + key + "' must be an array";
    return false;
  }
  for (const auto& item : value->asArray()) {
    if (!item.isNumber()) {
      *error = std::string("'") + key + "' entries must be numbers";
      return false;
    }
    out->push_back(static_cast<std::uint64_t>(item.asNumber()));
  }
  return true;
}

}  // namespace

const char* toString(Command command) {
  switch (command) {
    case Command::Negotiate: return "NEGOTIATE";
    case Command::Cancel: return "CANCEL";
    case Command::Resize: return "RESIZE";
    case Command::Stats: return "STATS";
    case Command::Verify: return "VERIFY";
    case Command::Hello: return "HELLO";
    case Command::Reshapes: return "RESHAPES";
  }
  return "UNKNOWN";
}

std::string encodeRequest(const Request& request) {
  std::string out;
  JsonWriter w(out);
  const auto version = static_cast<std::int64_t>(request.version);
  w.beginObject()
      .member("cmd", toString(request.command))
      .member("id", static_cast<std::int64_t>(request.id));
  // Each command's remaining keys, in sorted order.
  switch (request.command) {
    case Command::Negotiate: {
      const auto& p = std::get<NegotiateRequest>(request.payload);
      w.member("release", unitsFromTicks(p.release)).key("spec");
      task::writeJson(w, p.spec);
      w.member("v", version);
      break;
    }
    case Command::Cancel: {
      const auto& p = std::get<CancelRequest>(request.payload);
      w.member("jobId", static_cast<std::int64_t>(p.jobId))
          .member("v", version);
      break;
    }
    case Command::Resize: {
      const auto& p = std::get<ResizeRequest>(request.payload);
      w.member("processors", p.processors)
          .member("v", version)
          .member("when", unitsFromTicks(p.when));
      break;
    }
    case Command::Hello: {
      const auto& p = std::get<HelloRequest>(request.payload);
      w.member("v", version)
          .member("window", static_cast<std::int64_t>(p.window));
      break;
    }
    case Command::Stats:
    case Command::Verify:
    case Command::Reshapes:
      w.member("v", version);
      break;
  }
  w.endObject();
  return out;
}

RequestParseResult decodeRequest(const std::string& text) {
  RequestParseResult result;
  const auto parsed = parseJson(text);
  if (!parsed.ok()) {
    result.error = "JSON error at byte " + std::to_string(parsed.errorOffset) +
                   ": " + parsed.error;
    return result;
  }
  const JsonValue& root = *parsed.value;
  if (!root.isObject()) {
    result.error = "request must be an object";
    return result;
  }
  Reader r(root);
  Request request;
  const auto version = r.id("v");
  request.id = r.id("id");
  const auto cmd = r.string("cmd");
  if (r.failed()) {
    result.error = r.error();
    return result;
  }
  if (version != kProtocolVersion && version != kProtocolVersionV2) {
    result.error = "unsupported protocol version " + std::to_string(version);
    return result;
  }
  request.version = static_cast<std::uint32_t>(version);
  if (cmd == "NEGOTIATE") {
    request.command = Command::Negotiate;
    NegotiateRequest payload;
    payload.release = ticksFromUnits(r.number("release", false, 0.0));
    const auto* spec = root.find("spec");
    if (spec == nullptr) {
      result.error = "NEGOTIATE requires a 'spec' object";
      return result;
    }
    auto parsedSpec = task::jobSpecFromJsonValue(*spec);
    if (!parsedSpec.ok()) {
      result.error = "bad spec: " + parsedSpec.error;
      return result;
    }
    payload.spec = std::move(*parsedSpec.spec);
    request.payload = std::move(payload);
  } else if (cmd == "CANCEL") {
    request.command = Command::Cancel;
    CancelRequest payload;
    payload.jobId = r.id("jobId");
    request.payload = payload;
  } else if (cmd == "RESIZE") {
    request.command = Command::Resize;
    ResizeRequest payload;
    payload.processors = static_cast<int>(r.number("processors"));
    payload.when = ticksFromUnits(r.number("when", false, 0.0));
    request.payload = payload;
  } else if (cmd == "STATS") {
    request.command = Command::Stats;
  } else if (cmd == "VERIFY") {
    request.command = Command::Verify;
  } else if (cmd == "RESHAPES") {
    request.command = Command::Reshapes;
  } else if (cmd == "HELLO") {
    if (request.version < kProtocolVersionV2) {
      result.error = "HELLO requires protocol version 2";
      return result;
    }
    request.command = Command::Hello;
    HelloRequest payload;
    const auto window = r.id("window", false);
    payload.window = window == 0 ? 1 : static_cast<std::uint32_t>(window);
    request.payload = payload;
  } else {
    result.error = "unknown command '" + cmd + "'";
    return result;
  }
  if (r.failed()) {
    result.error = r.error();
    return result;
  }
  result.request = std::move(request);
  return result;
}

namespace {

/// The "cmd" an ok response echoes for its result type.
struct ResultCommand {
  const char* operator()(const std::monostate&) const {
    TPRM_CHECK(false, "ok response without a result payload");
    return "";
  }
  const char* operator()(const NegotiateResult&) const {
    return toString(Command::Negotiate);
  }
  const char* operator()(const CancelResult&) const {
    return toString(Command::Cancel);
  }
  const char* operator()(const ResizeResult&) const {
    return toString(Command::Resize);
  }
  const char* operator()(const StatsResult&) const {
    return toString(Command::Stats);
  }
  const char* operator()(const VerifyResult&) const {
    return toString(Command::Verify);
  }
  const char* operator()(const HelloResult&) const {
    return toString(Command::Hello);
  }
  const char* operator()(const ReshapesResult& reshapes) const {
    return reshapes.push ? "RESHAPED" : toString(Command::Reshapes);
  }
};

/// The fields of an ok response's "result" object, in sorted key order.
void writeResult(JsonWriter& w, const Response& response) {
  if (const auto* negotiate = std::get_if<NegotiateResult>(&response.result)) {
    w.member("admitted", negotiate->admitted)
        .member("arrivalSeq", static_cast<std::int64_t>(negotiate->arrivalSeq));
    if (negotiate->admitted && !negotiate->bindings.empty()) {
      w.key("bindings").beginObject();
      for (const auto& [param, value] : negotiate->bindings) {
        w.member(param, value);
      }
      w.endObject();
    }
    if (negotiate->admitted) {
      w.member("chainIndex", static_cast<std::int64_t>(negotiate->chainIndex));
    }
    w.member("chainsConsidered", negotiate->chainsConsidered)
        .member("chainsSchedulable", negotiate->chainsSchedulable)
        .member("jobId", static_cast<std::int64_t>(negotiate->jobId));
    if (negotiate->admitted) {
      w.key("placements");
      writePlacements(w, negotiate->placements);
      w.member("quality", negotiate->quality);
    }
    w.member("release", unitsFromTicks(negotiate->release));
  } else if (const auto* cancel = std::get_if<CancelResult>(&response.result)) {
    w.member("freed", unitsFromTicks(cancel->freedTicks));
  } else if (const auto* resize = std::get_if<ResizeResult>(&response.result)) {
    writeIds(w, "dropped", resize->dropped);
    writeIds(w, "kept", resize->kept);
    w.member("processorsAfter", resize->processorsAfter)
        .member("processorsBefore", resize->processorsBefore);
    writeIds(w, "reconfigured", resize->reconfigured);
  } else if (const auto* stats = std::get_if<StatsResult>(&response.result)) {
    w.member("admitted", static_cast<std::int64_t>(stats->admitted))
        .member("clock", unitsFromTicks(stats->clock))
        .member("commandsExecuted",
                static_cast<std::int64_t>(stats->commandsExecuted))
        .member("processors", stats->processors)
        .member("rejected", static_cast<std::int64_t>(stats->rejected))
        .member("shards", stats->shards);
  } else if (const auto* verify = std::get_if<VerifyResult>(&response.result)) {
    if (!verify->ok) w.member("firstViolation", verify->firstViolation);
    w.member("ok", verify->ok).member("violations", verify->violations);
  } else if (const auto* hello = std::get_if<HelloResult>(&response.result)) {
    w.member("version", static_cast<std::int64_t>(hello->version))
        .member("window", static_cast<std::int64_t>(hello->window));
  } else if (const auto* reshapes =
                 std::get_if<ReshapesResult>(&response.result)) {
    w.key("events").beginArray();
    for (const auto& event : reshapes->events) {
      w.beginObject()
          .member("fromChain", static_cast<std::int64_t>(event.fromChain))
          .member("fromQuality", event.fromQuality)
          .member("jobId", static_cast<std::int64_t>(event.jobId))
          .key("placements");
      writePlacements(w, event.placements);
      w.member("promotion", event.promotion)
          .member("toChain", static_cast<std::int64_t>(event.toChain))
          .member("toQuality", event.toQuality)
          .endObject();
    }
    w.endArray();
  }
}

}  // namespace

std::string encodeResponse(const Response& response) {
  std::string out;
  JsonWriter w(out);
  const auto id = static_cast<std::int64_t>(response.id);
  // Top-level keys in sorted order: cmd, error, id, ok, result, window.
  w.beginObject();
  if (response.ok) {
    w.member("cmd", std::visit(ResultCommand{}, response.result))
        .member("id", id)
        .member("ok", true)
        .key("result")
        .beginObject();
    writeResult(w, response);
    w.endObject();
  } else {
    TPRM_CHECK(response.error.has_value(),
               "error responses must carry ErrorInfo");
    w.key("error")
        .beginObject()
        .member("code", response.error->code)
        .member("message", response.error->message)
        .endObject()
        .member("id", id)
        .member("ok", false);
  }
  if (response.advertisedWindow.has_value()) {
    w.member("window", static_cast<std::int64_t>(*response.advertisedWindow));
  }
  w.endObject();
  return out;
}

ResponseParseResult decodeResponse(const std::string& text) {
  ResponseParseResult out;
  const auto parsed = parseJson(text);
  if (!parsed.ok()) {
    out.error = "JSON error at byte " + std::to_string(parsed.errorOffset) +
                ": " + parsed.error;
    return out;
  }
  const JsonValue& root = *parsed.value;
  if (!root.isObject()) {
    out.error = "response must be an object";
    return out;
  }
  Reader r(root);
  Response response;
  response.id = r.id("id");
  response.ok = r.boolean("ok");
  if (r.failed()) {
    out.error = r.error();
    return out;
  }
  // Adaptive-window re-advertisement; tolerated absent (older servers).
  if (const auto* window = root.find("window")) {
    if (window->isNumber() && window->asNumber() >= 1) {
      response.advertisedWindow =
          static_cast<std::uint32_t>(window->asNumber());
    }
  }
  if (!response.ok) {
    const auto* error = root.find("error");
    if (error == nullptr || !error->isObject()) {
      out.error = "error response without 'error' object";
      return out;
    }
    Reader er(*error);
    ErrorInfo info;
    info.code = er.string("code");
    info.message = er.string("message");
    if (er.failed()) {
      out.error = er.error();
      return out;
    }
    response.error = std::move(info);
    out.response = std::move(response);
    return out;
  }

  const auto cmd = r.string("cmd");
  const auto* result = root.find("result");
  if (r.failed() || result == nullptr || !result->isObject()) {
    out.error = r.failed() ? r.error() : "ok response without 'result' object";
    return out;
  }
  Reader rr(*result);
  if (cmd == "NEGOTIATE") {
    NegotiateResult negotiate;
    negotiate.admitted = rr.boolean("admitted");
    negotiate.arrivalSeq = rr.id("arrivalSeq");
    negotiate.jobId = rr.id("jobId");
    negotiate.release = ticksFromUnits(rr.number("release"));
    negotiate.chainsConsidered = static_cast<int>(rr.number("chainsConsidered"));
    negotiate.chainsSchedulable =
        static_cast<int>(rr.number("chainsSchedulable"));
    if (!rr.failed() && negotiate.admitted) {
      negotiate.chainIndex = static_cast<std::size_t>(rr.id("chainIndex"));
      negotiate.quality = rr.number("quality");
      if (!placementsFromJson(result->find("placements"),
                              &negotiate.placements, &out.error)) {
        return out;
      }
      if (const auto* bindings = result->find("bindings")) {
        if (!bindings->isObject()) {
          out.error = "'bindings' must be an object";
          return out;
        }
        for (const auto& [param, value] : bindings->asObject()) {
          if (!value.isNumber()) {
            out.error = "binding '" + param + "' must be a number";
            return out;
          }
          negotiate.bindings[param] =
              static_cast<std::int64_t>(value.asNumber());
        }
      }
    }
    if (rr.failed()) {
      out.error = rr.error();
      return out;
    }
    response.result = std::move(negotiate);
  } else if (cmd == "CANCEL") {
    CancelResult cancel;
    cancel.freedTicks = ticksFromUnits(rr.number("freed"));
    if (rr.failed()) {
      out.error = rr.error();
      return out;
    }
    response.result = cancel;
  } else if (cmd == "RESIZE") {
    ResizeResult resize;
    resize.processorsBefore = static_cast<int>(rr.number("processorsBefore"));
    resize.processorsAfter = static_cast<int>(rr.number("processorsAfter"));
    if (rr.failed() ||
        !idsFromJson(result->find("kept"), &resize.kept, &out.error,
                     "kept") ||
        !idsFromJson(result->find("reconfigured"), &resize.reconfigured,
                     &out.error, "reconfigured") ||
        !idsFromJson(result->find("dropped"), &resize.dropped, &out.error,
                     "dropped")) {
      if (out.error.empty()) out.error = rr.error();
      return out;
    }
    response.result = std::move(resize);
  } else if (cmd == "STATS") {
    StatsResult stats;
    stats.processors = static_cast<int>(rr.number("processors"));
    stats.clock = ticksFromUnits(rr.number("clock"));
    stats.admitted = rr.id("admitted");
    stats.rejected = rr.id("rejected");
    stats.commandsExecuted = rr.id("commandsExecuted");
    if (const auto* shards = result->find("shards")) {
      if (shards->isNumber()) stats.shards = static_cast<int>(shards->asNumber());
    }
    if (rr.failed()) {
      out.error = rr.error();
      return out;
    }
    response.result = stats;
  } else if (cmd == "VERIFY") {
    VerifyResult verify;
    verify.ok = rr.boolean("ok");
    verify.violations = static_cast<int>(rr.number("violations"));
    if (const auto* violation = result->find("firstViolation")) {
      if (violation->isString()) verify.firstViolation = violation->asString();
    }
    if (rr.failed()) {
      out.error = rr.error();
      return out;
    }
    response.result = std::move(verify);
  } else if (cmd == "HELLO") {
    HelloResult hello;
    hello.version = static_cast<std::uint32_t>(rr.id("version"));
    hello.window = static_cast<std::uint32_t>(rr.id("window"));
    if (rr.failed()) {
      out.error = rr.error();
      return out;
    }
    response.result = hello;
  } else if (cmd == "RESHAPES" || cmd == "RESHAPED") {
    ReshapesResult reshapes;
    reshapes.push = cmd == "RESHAPED";
    const auto* events = result->find("events");
    if (events == nullptr || !events->isArray()) {
      out.error = "'events' must be an array";
      return out;
    }
    for (const auto& item : events->asArray()) {
      if (!item.isObject()) {
        out.error = "reshape events must be objects";
        return out;
      }
      Reader er(item);
      ReshapeEvent event;
      event.jobId = er.id("jobId");
      event.promotion = er.boolean("promotion");
      event.fromChain = static_cast<std::size_t>(er.id("fromChain"));
      event.toChain = static_cast<std::size_t>(er.id("toChain"));
      event.fromQuality = er.number("fromQuality");
      event.toQuality = er.number("toQuality");
      if (er.failed()) {
        out.error = er.error();
        return out;
      }
      if (!placementsFromJson(item.find("placements"), &event.placements,
                              &out.error)) {
        return out;
      }
      reshapes.events.push_back(std::move(event));
    }
    response.result = std::move(reshapes);
  } else {
    out.error = "unknown response command '" + cmd + "'";
    return out;
  }
  out.response = std::move(response);
  return out;
}

Response makeError(std::uint64_t id, std::string code, std::string message) {
  Response response;
  response.id = id;
  response.ok = false;
  response.error = ErrorInfo{std::move(code), std::move(message)};
  return response;
}

}  // namespace tprm::service
