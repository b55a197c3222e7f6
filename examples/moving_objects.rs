//! Streaming updates over a moving-objects relation — the workload the
//! paper motivates (location-based services over vehicles) and the one the
//! versioned relation store exists for.
//!
//! A fleet of vehicles streams position reports into the database while
//! dispatch queries keep running: each query pins an immutable snapshot, so
//! readers never block on writers. When a relation's delta overlay outgrows
//! the compaction threshold, a background rebuild of the index is scheduled
//! on the shared worker pool and the fresh base is atomically published.
//!
//! The dispatch query also runs as a **standing query**
//! ([`Database::subscribe`]): instead of re-running it from scratch every
//! tick, the continuous-query maintainer probes each published batch
//! against the subscription's guard region, re-evaluates only when a
//! vehicle movement could actually change the answer, and emits the
//! changed rows as [`ResultDelta`]s — the streaming monitor below just
//! polls and prints them. One monitor is registered **textually**
//! ([`Database::subscribe_query`]): a `FIND … WHERE …` geofence watch
//! whose pre-kNN filter ranks only the vehicles inside the fence.
//!
//! The store runs **durably** ([`DurabilityConfig`]): every position batch
//! is write-ahead-logged before it publishes, compacted shard bases spill
//! to immutable block files, and the final act checkpoints, *drops* the
//! database, and [`Database::open`]s it again — the stream resumes exactly
//! where the "crash" left it.
//!
//! Run with: `cargo run --release --example moving_objects`

use two_knn::core::plan::{Database, QuerySpec};
use two_knn::core::select_join::SelectInnerJoinQuery;
use two_knn::core::selects2::TwoSelectsQuery;
use two_knn::core::store::{DurabilityConfig, StoreConfig, SyncPolicy, WriteOp};
use two_knn::datagen::{berlinmod, BerlinModConfig};
use two_knn::{GridIndex, Point, SpatialIndex};

fn main() {
    // Vehicles move; repair stations don't. A small compaction threshold so
    // this example visibly triggers background rebuilds, and a durable store
    // under the system tmp dir so the fleet survives a restart.
    let dir = std::env::temp_dir().join(format!("twoknn-moving-objects-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig {
        compaction_threshold: 4_000,
        durability: DurabilityConfig::at(&dir).with_sync(SyncPolicy::EveryN(64)),
        ..StoreConfig::default()
    };
    let mut db = Database::with_store_config(config.clone());
    let vehicles = berlinmod(&BerlinModConfig::with_points(40_000, 21));
    db.register(
        "Vehicles",
        GridIndex::build_with_target_occupancy(vehicles.clone(), 64).unwrap(),
    );
    db.register(
        "Stations",
        GridIndex::build_with_target_occupancy(
            berlinmod(&BerlinModConfig::with_points(2_000, 22)),
            64,
        )
        .unwrap(),
    );

    // Dispatch query: for every repair station, its 2 nearest vehicles —
    // keeping only vehicles among the 32 closest to the accident hotspot.
    let hotspot = Point::anonymous(51_000.0, 48_500.0);
    let spec = QuerySpec::SelectInnerOfJoin {
        outer: "Stations".into(),
        inner: "Vehicles".into(),
        query: SelectInnerJoinQuery::new(2, 32, hotspot),
    };

    // Standing queries: the dispatch query itself, plus an accident-hotspot
    // monitor. Both are evaluated once here; afterwards the maintainer
    // re-evaluates them only when a published batch intersects their guard
    // regions (cq_reevals vs cq_skips below).
    let dispatch = db.subscribe(&spec, None).expect("subscribe dispatch");
    let monitor_spec = QuerySpec::TwoSelects {
        relation: "Vehicles".into(),
        query: TwoSelectsQuery::new(6, hotspot, 48, Point::anonymous(50_600.0, 48_900.0)),
    };
    let monitor = db
        .subscribe(&monitor_spec, None)
        .expect("subscribe monitor");
    let initial = db.poll(monitor).expect("initial monitor delta");

    // The declarative front-end drives the same machinery: a textual
    // geofence watch whose *pre*-kNN filter means the query ranks only the
    // vehicles inside the fence — "the 12 nearest *fenced* vehicles", not
    // "the 12 nearest, fenced afterwards".
    let geofence_text = "FIND (Vehicles WHERE INSIDE(RECT(45000, 43000, 57000, 54000))) \
                         WHERE KNN(12, 51000, 48500)";
    // EXPLAIN the geofence query before standing it up: the decision chain
    // shows the pre-kNN filter pushed below the kNN predicate.
    println!(
        "{}\n",
        db.explain(geofence_text).expect("explain geofence watch")
    );
    let geofence = db
        .subscribe_query(geofence_text)
        .expect("subscribe geofence watch");
    let fenced = db.poll(geofence).expect("initial geofence delta");
    println!(
        "standing queries registered: dispatch {dispatch}, hotspot monitor {monitor} \
         ({} vehicles initially on watch), textual geofence watch {geofence} \
         ({} fenced vehicles)\n",
        initial.iter().map(|d| d.added.len()).sum::<usize>(),
        fenced.iter().map(|d| d.added.len()).sum::<usize>(),
    );

    println!(
        "{} vehicles streaming positions, {} stations, compaction threshold {}\n",
        db.relation("Vehicles").unwrap().num_points(),
        db.relation("Stations").unwrap().num_points(),
        db.store().config().compaction_threshold,
    );
    println!(
        "{:>5} {:>10} {:>9} {:>12} {:>12} {:>8} {:>14} {:>12} {:>10}",
        "tick",
        "version",
        "delta",
        "compactions",
        "rows",
        "ms",
        "cq re/skip",
        "monitor Δ",
        "fence Δ"
    );

    // Ten ticks of the position stream: every tick, 1500 vehicles report a
    // new position (one atomic batch each) and dispatch re-runs its query.
    for tick in 1..=10u64 {
        let ops: Vec<WriteOp> = vehicles
            .iter()
            .filter(|p| (p.id + tick) % 27 == 0)
            .map(|p| {
                // A small deterministic drift per tick.
                let dx = ((p.id * 31 + tick * 7) % 400) as f64 - 200.0;
                let dy = ((p.id * 17 + tick * 13) % 400) as f64 - 200.0;
                WriteOp::Upsert(Point::new(p.id, p.x + dx, p.y + dy))
            })
            .collect();
        db.ingest("Vehicles", &ops).unwrap();

        let start = std::time::Instant::now();
        let result = db.execute(&spec).unwrap();
        let ms = start.elapsed().as_secs_f64() * 1e3;

        // Drain this tick's maintenance, then poll the monitor's deltas —
        // the push-style view of the same data the query above recomputed.
        db.pool().wait_idle();
        let deltas = db.poll(monitor).unwrap();
        let (entered, left) = deltas.iter().fold((0usize, 0usize), |(a, r), d| {
            (a + d.added.len(), r + d.removed.len())
        });
        let fence_deltas = db.poll(geofence).unwrap();
        let (fence_in, fence_out) = fence_deltas.iter().fold((0usize, 0usize), |(a, r), d| {
            (a + d.added.len(), r + d.removed.len())
        });

        let snap = db.relation("Vehicles").unwrap();
        let m = db.store_metrics();
        println!(
            "{tick:>5} {:>10} {:>9} {:>12} {:>12} {:>8.1} {:>14} {:>12} {:>10}",
            snap.version(),
            snap.delta_len(),
            m.compactions,
            result.num_rows(),
            ms,
            format!("{}/{}", m.cq_reevals, m.cq_skips),
            format!("+{entered}/-{left}"),
            format!("+{fence_in}/-{fence_out}"),
        );
    }

    let (dispatch_rows, dispatch_version) = db.subscription_result(dispatch).unwrap();
    println!(
        "\ndispatch standing query: {} maintained rows at version {dispatch_version} \
         (no re-execution needed to read them)",
        dispatch_rows.len(),
    );

    // Drain whatever delta remains and show the final, fully compacted state.
    while db.relation("Vehicles").unwrap().delta_len() > 0 {
        db.compact_now("Vehicles").unwrap();
    }
    println!(
        "\nfinal: version {}, {} points",
        db.relation("Vehicles").unwrap().version(),
        db.relation("Vehicles").unwrap().num_points(),
    );
    println!("\nmetrics report:\n{}", db.metrics_report());
    let events = db.drain_events();
    println!("lifecycle events recorded this run: {}", events.len());
    for event in events.iter().rev().take(3).rev() {
        println!("  {event}");
    }

    // Save / restart / resume: checkpoint (spill dirty shards, trim the
    // WAL), then drop the Database — indistinguishable from a crash — and
    // recover it from the directory. The fleet, the stations, and the
    // dispatch answer all come back; the position stream just keeps going.
    db.checkpoint();
    let saved_points = db.relation("Vehicles").unwrap().num_points();
    let saved_rows = db.execute(&spec).unwrap().num_rows();
    let saved_fenced = db.query(geofence_text).unwrap().num_rows();
    drop(db);

    let db = Database::open(&dir, config).expect("recover the durable store");
    let recovered = db.relation("Vehicles").unwrap().num_points();
    let rows_after = db.execute(&spec).unwrap().num_rows();
    let fenced_after = db.query(geofence_text).unwrap().num_rows();
    assert_eq!(
        (recovered, rows_after, fenced_after),
        (saved_points, saved_rows, saved_fenced)
    );
    println!(
        "\nrestart: recovered {} relation(s), {recovered} vehicles, dispatch \
         answers {rows_after} rows and the geofence query {fenced_after} — \
         identical to before the shutdown",
        db.store_metrics().recoveries,
    );
    let resume: Vec<WriteOp> = vehicles
        .iter()
        .filter(|p| p.id % 27 == 0)
        .map(|p| WriteOp::Upsert(Point::new(p.id, p.x + 250.0, p.y - 250.0)))
        .collect();
    db.ingest("Vehicles", &resume).unwrap();
    println!(
        "resume: ingested {} position reports into the recovered store \
         (version {}, {} WAL records so far)",
        resume.len(),
        db.relation("Vehicles").unwrap().version(),
        db.store_metrics().wal_appends,
    );
    let _ = std::fs::remove_dir_all(&dir);
}
