// Deterministic JSON emission for the observability and scenario layers.
//
// JsonWriter is the single JSON emitter of the repo's machine-readable
// outputs: a tiny ordered writer whose output is a pure function of the
// values written — runs that produce identical metrics produce byte-identical
// JSON, which is what the determinism acceptance checks compare. It lives in obs/ because the tracing/congestion
// exporters sit below the scenario layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ncc::obs {

/// Ordered, allocation-light JSON writer. The caller is responsible for
/// well-formedness (begin/end pairing, key before value inside objects);
/// commas and indentation-free layout are handled here. Doubles are
/// formatted with %.6g, so equal doubles give equal bytes.
class JsonWriter {
 public:
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(const std::string& k) {
    comma();
    append_quoted(k);
    out_ += ": ";
    pending_value_ = true;
  }

  void value(uint64_t v) { raw(std::to_string(v)); }
  void value(uint32_t v) { raw(std::to_string(v)); }
  void value(int64_t v) { raw(std::to_string(v)); }
  void value(double v);
  void value(bool v) { raw(v ? "true" : "false"); }
  void value(const std::string& v) {
    comma();
    append_quoted(v);
  }
  void value(const char* v) { value(std::string(v)); }

  /// key + value in one call.
  template <typename T>
  void kv(const std::string& k, const T& v) {
    key(k);
    value(v);
  }

  const std::string& str() const { return out_; }

 private:
  void open(char c);
  void close(char c);
  void comma();
  void raw(const std::string& s) {
    comma();
    out_ += s;
  }
  void append_quoted(const std::string& s);

  std::string out_;
  std::vector<bool> first_;     // per open container: no element written yet
  bool pending_value_ = false;  // a key was just written
};

}  // namespace ncc::obs
