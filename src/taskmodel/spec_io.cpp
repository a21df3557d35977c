#include "taskmodel/spec_io.h"

#include <cmath>
#include <string>

#include "common/check.h"

namespace tprm::task {

void writeJson(JsonWriter& writer, const TunableJobSpec& spec) {
  // Keys in sorted order at every level (see JsonWriter).
  writer.beginObject().key("chains").beginArray();
  for (const auto& chain : spec.chains) {
    writer.beginObject();
    if (!chain.bindings.empty()) {
      writer.key("bindings").beginObject();
      for (const auto& [param, value] : chain.bindings) {
        writer.member(param, value);
      }
      writer.endObject();
    }
    writer.member("name", chain.name).key("tasks").beginArray();
    for (const auto& t : chain.tasks) {
      writer.beginObject();
      if (t.relativeDeadline < kTimeInfinity) {
        writer.member("deadline", unitsFromTicks(t.relativeDeadline));
      }
      writer.member("duration", unitsFromTicks(t.request.duration));
      if (t.malleable) {
        writer.member("maxConcurrency", t.malleable->maxConcurrency);
      }
      writer.member("name", t.name)
          .member("processors", t.request.processors);
      if (t.quality != 1.0) writer.member("quality", t.quality);
      writer.endObject();
    }
    writer.endArray().endObject();
  }
  writer.endArray()
      .member("name", spec.name)
      .member("qualityComposition",
              spec.qualityComposition == QualityComposition::Minimum
                  ? "minimum"
                  : "multiplicative")
      .endObject();
}

std::string toJson(const TunableJobSpec& spec) {
  // One schema, written once: the pretty file form is the compact form
  // re-rendered (numbers parse back to the same doubles).
  std::string compact;
  JsonWriter writer(compact);
  writeJson(writer, spec);
  const auto parsed = parseJson(compact);
  TPRM_CHECK(parsed.ok(), "spec holds a number JSON cannot represent");
  return parsed.value->dump();
}

namespace {

/// Error accumulator for descriptive parse failures.
class SpecReader {
 public:
  SpecParseResult read(const std::string& text) {
    const auto parsed = parseJson(text);
    if (!parsed.ok()) {
      return fail("JSON error at byte " + std::to_string(parsed.errorOffset) +
                  ": " + parsed.error);
    }
    return readValue(*parsed.value);
  }

  SpecParseResult readValue(const JsonValue& root) {
    if (!root.isObject()) return fail("top level must be an object");

    TunableJobSpec spec;
    if (const auto* name = root.find("name")) {
      if (!name->isString()) return fail("'name' must be a string");
      spec.name = name->asString();
    }
    if (const auto* comp = root.find("qualityComposition")) {
      if (!comp->isString()) {
        return fail("'qualityComposition' must be a string");
      }
      const auto& value = comp->asString();
      if (value == "minimum") {
        spec.qualityComposition = QualityComposition::Minimum;
      } else if (value == "multiplicative") {
        spec.qualityComposition = QualityComposition::Multiplicative;
      } else {
        return fail("unknown qualityComposition '" + value + "'");
      }
    }
    const auto* chains = root.find("chains");
    if (chains == nullptr || !chains->isArray()) {
      return fail("'chains' must be an array");
    }
    spec.chains.reserve(chains->asArray().size());
    for (std::size_t c = 0; c < chains->asArray().size(); ++c) {
      auto chain = readChain(chains->asArray()[c], c);
      if (!chain) return fail(error_);
      spec.chains.push_back(std::move(*chain));
    }

    const auto errors = validate(spec);
    if (!errors.empty()) return fail("invalid spec: " + errors.front());
    SpecParseResult result;
    result.spec = std::move(spec);
    return result;
  }

 private:
  SpecParseResult fail(const std::string& what) {
    SpecParseResult result;
    result.error = what;
    return result;
  }

  /// Location strings are built only when an error is reported: the success
  /// path of every request pays nothing for them.
  static std::string chainWhere(std::size_t chain) {
    return "chains[" + std::to_string(chain) + "]";
  }
  static std::string taskWhere(std::size_t chain, std::size_t task) {
    return chainWhere(chain) + ".tasks[" + std::to_string(task) + "]";
  }

  std::optional<Chain> readChain(const JsonValue& value, std::size_t index) {
    if (!value.isObject()) {
      error_ = chainWhere(index) + " must be an object";
      return std::nullopt;
    }
    Chain chain;
    if (const auto* name = value.find("name")) {
      if (!name->isString()) {
        error_ = chainWhere(index) + ".name must be a string";
        return std::nullopt;
      }
      chain.name = name->asString();
    }
    if (const auto* bindings = value.find("bindings")) {
      if (!bindings->isObject()) {
        error_ = chainWhere(index) + ".bindings must be an object";
        return std::nullopt;
      }
      for (const auto& [param, bound] : bindings->asObject()) {
        if (!bound.isNumber() ||
            bound.asNumber() != std::floor(bound.asNumber())) {
          error_ = chainWhere(index) + ".bindings." + param +
                   " must be an integer";
          return std::nullopt;
        }
        chain.bindings[param] = static_cast<std::int64_t>(bound.asNumber());
      }
    }
    const auto* tasks = value.find("tasks");
    if (tasks == nullptr || !tasks->isArray()) {
      error_ = chainWhere(index) + ".tasks must be an array";
      return std::nullopt;
    }
    chain.tasks.reserve(tasks->asArray().size());
    for (std::size_t k = 0; k < tasks->asArray().size(); ++k) {
      auto task = readTask(tasks->asArray()[k], index, k);
      if (!task) return std::nullopt;
      chain.tasks.push_back(std::move(*task));
    }
    return chain;
  }

  std::optional<TaskSpec> readTask(const JsonValue& value, std::size_t chain,
                                   std::size_t index) {
    if (!value.isObject()) {
      error_ = taskWhere(chain, index) + " must be an object";
      return std::nullopt;
    }
    TaskSpec task;
    if (const auto* name = value.find("name")) {
      if (!name->isString()) {
        error_ = taskWhere(chain, index) + ".name must be a string";
        return std::nullopt;
      }
      task.name = name->asString();
    }
    const auto* processors = value.find("processors");
    if (processors == nullptr || !processors->isNumber()) {
      error_ = taskWhere(chain, index) + ".processors must be a number";
      return std::nullopt;
    }
    task.request.processors = static_cast<int>(processors->asNumber());
    const auto* duration = value.find("duration");
    if (duration == nullptr || !duration->isNumber()) {
      error_ = taskWhere(chain, index) + ".duration must be a number";
      return std::nullopt;
    }
    if (duration->asNumber() <= 0.0) {
      error_ = taskWhere(chain, index) + ".duration must be positive";
      return std::nullopt;
    }
    task.request.duration = ticksFromUnits(duration->asNumber());
    if (const auto* deadline = value.find("deadline")) {
      if (!deadline->isNumber()) {
        error_ = taskWhere(chain, index) + ".deadline must be a number";
        return std::nullopt;
      }
      task.relativeDeadline = ticksFromUnits(deadline->asNumber());
    }
    if (const auto* quality = value.find("quality")) {
      if (!quality->isNumber()) {
        error_ = taskWhere(chain, index) + ".quality must be a number";
        return std::nullopt;
      }
      task.quality = quality->asNumber();
    }
    if (const auto* maxConc = value.find("maxConcurrency")) {
      if (!maxConc->isNumber()) {
        error_ = taskWhere(chain, index) + ".maxConcurrency must be a number";
        return std::nullopt;
      }
      task.malleable = MalleableSpec{task.request.area(),
                                     static_cast<int>(maxConc->asNumber())};
    }
    return task;
  }

  std::string error_;
};

}  // namespace

SpecParseResult jobSpecFromJson(const std::string& text) {
  return SpecReader().read(text);
}

SpecParseResult jobSpecFromJsonValue(const JsonValue& root) {
  return SpecReader().readValue(root);
}

}  // namespace tprm::task
