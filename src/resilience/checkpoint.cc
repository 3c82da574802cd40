#include "resilience/checkpoint.hh"

#include <cstring>

#include "common/error.hh"

namespace rapid {
namespace {

constexpr uint32_t kMagic = 0x43445052;  // "RPDC" little-endian
constexpr uint32_t kVersion = 1;

/// Byte-stream writer with an explicit little-endian integer layout.
struct Writer
{
    std::vector<uint8_t> bytes;

    void u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes.push_back(uint8_t(v >> (8 * i)));
    }
    void u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(uint8_t(v >> (8 * i)));
    }
    void f32(float v)
    {
        // Store the bit pattern: NaN payloads and -0.0 round-trip.
        uint32_t u;
        std::memcpy(&u, &v, sizeof(u));
        u32(u);
    }
    void floats(const std::vector<float> &v)
    {
        u64(v.size());
        for (float x : v)
            f32(x);
    }
    void str(const std::string &s)
    {
        u64(s.size());
        bytes.insert(bytes.end(), s.begin(), s.end());
    }
};

/// Byte-stream reader mirroring Writer; throws on truncation.
struct Reader
{
    const std::vector<uint8_t> &bytes;
    size_t pos = 0;

    void need(size_t n) const
    {
        RAPID_CHECK_ARG(pos + n <= bytes.size(),
                        "truncated checkpoint: need ", n, " bytes at "
                        "offset ", pos, " of ", bytes.size());
    }
    uint32_t u32()
    {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= uint32_t(bytes[pos + size_t(i)]) << (8 * i);
        pos += 4;
        return v;
    }
    uint64_t u64()
    {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= uint64_t(bytes[pos + size_t(i)]) << (8 * i);
        pos += 8;
        return v;
    }
    float f32()
    {
        const uint32_t u = u32();
        float v;
        std::memcpy(&v, &u, sizeof(v));
        return v;
    }
    std::vector<float> floats()
    {
        const uint64_t n = u64();
        need(size_t(n) * 4);
        std::vector<float> v;
        v.resize(size_t(n));
        for (size_t i = 0; i < v.size(); ++i)
            v[i] = f32();
        return v;
    }
    std::string str()
    {
        const uint64_t n = u64();
        need(size_t(n));
        std::string s(bytes.begin() + long(pos),
                      bytes.begin() + long(pos + n));
        pos += size_t(n);
        return s;
    }
};

} // namespace

std::vector<uint8_t>
serializeCheckpoint(const TrainerCheckpoint &ckpt)
{
    Writer w;
    w.u32(kMagic);
    w.u32(kVersion);
    w.u64(ckpt.step);
    w.u64(ckpt.data_cursor);

    w.u32(uint32_t(ckpt.model.precision));
    w.str(ckpt.model.rng);
    w.u64(ckpt.model.layers.size());
    for (const DenseState &l : ckpt.model.layers) {
        w.floats(l.w);
        w.floats(l.b);
        w.floats(l.w_vel);
        w.floats(l.b_vel);
        w.f32(l.alpha);
        w.f32(l.alpha_vel);
    }

    w.f32(ckpt.scaler.scale);
    w.u32(uint32_t(ckpt.scaler.good_steps));
    w.u64(ckpt.scaler.growths);
    w.u64(ckpt.scaler.backoffs);
    w.u64(ckpt.scaler.skips);

    w.floats(ckpt.loss_window);
    return w.bytes;
}

TrainerCheckpoint
deserializeCheckpoint(const std::vector<uint8_t> &bytes)
{
    Reader r{bytes};
    const uint32_t magic = r.u32();
    RAPID_CHECK_ARG(magic == kMagic, "bad checkpoint magic ", magic);
    const uint32_t version = r.u32();
    RAPID_CHECK_ARG(version == kVersion,
                    "unsupported checkpoint version ", version);

    TrainerCheckpoint ckpt;
    ckpt.step = r.u64();
    ckpt.data_cursor = r.u64();

    const uint32_t precision = r.u32();
    RAPID_CHECK_ARG(precision <= uint32_t(TrainPrecision::HFP8),
                    "bad checkpoint precision tag ", precision);
    ckpt.model.precision = TrainPrecision(precision);
    ckpt.model.rng = r.str();
    const uint64_t layers = r.u64();
    RAPID_CHECK_ARG(layers < (1u << 20),
                    "implausible checkpoint layer count ", layers);
    ckpt.model.layers.resize(size_t(layers));
    for (DenseState &l : ckpt.model.layers) {
        l.w = r.floats();
        l.b = r.floats();
        l.w_vel = r.floats();
        l.b_vel = r.floats();
        l.alpha = r.f32();
        l.alpha_vel = r.f32();
    }

    ckpt.scaler.scale = r.f32();
    ckpt.scaler.good_steps = int(r.u32());
    ckpt.scaler.growths = r.u64();
    ckpt.scaler.backoffs = r.u64();
    ckpt.scaler.skips = r.u64();

    ckpt.loss_window = r.floats();
    RAPID_CHECK_ARG(r.pos == bytes.size(),
                    "trailing bytes after checkpoint payload: ",
                    bytes.size() - r.pos);
    return ckpt;
}

uint64_t
checkpointBytes(const TrainerCheckpoint &ckpt)
{
    return serializeCheckpoint(ckpt).size();
}

} // namespace rapid
