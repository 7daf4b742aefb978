type icache = int Cache.t

let icache_create (device : Device.t) =
  Cache.create
    ~capacity:(max 1 (device.Device.icache_bytes / device.Device.icache_line_bytes))
